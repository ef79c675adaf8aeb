"""Command line surface: build towers, condition, query probabilities,
verify the extension laws, run the triviality demo, and drive the
sequent logic tools.

Exit codes: 0 success or pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import List, Optional

from .bayes import (
    Tower,
    TowerGrowthError,
    TrivialEventError,
    cantor_pair,
    cantor_unpair,
)
from .boolalg import Element, FiniteBooleanAlgebra, parse_element
from .dbl.corpus import build_corpus
from .dbl.proofs import check_derivation, derivation_from_json, derivation_to_json
from .dbl.search import search_counterexample
from .dbl.semantics import holds
from .dbl.syntax import (
    FormulaParseError, Var, atom_names, parse_formula, parse_sequent)
from .field import format_scalar, standard_part
from .prob import (
    Distribution,
    NullEventError,
    check_conditional_laws,
    distribution_from_json,
    extend_distribution,
    lewis_candidates,
    prob_of,
    verify_events,
)

__all__ = [
    "cmd_build", "cmd_cond", "cmd_dbl", "cmd_extend", "cmd_lewis",
    "cmd_pairing", "cmd_prob", "cmd_verify", "main",
]


class UsageError(Exception):
    """Bad invocation or malformed input file: exit code 2."""


def _read_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_tower(path: str, max_atoms: Optional[int]) -> Tower:
    data = _read_json(path)
    try:
        tower = Tower.from_json(data)
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, TowerGrowthError) as exc:
        raise UsageError(f"{path}: {exc}") from exc
    if max_atoms is not None:
        tower.max_atoms = max_atoms
    return tower


def _load_algebra(path: str) -> FiniteBooleanAlgebra:
    data = _read_json(path)
    if not isinstance(data, dict) or "atoms" not in data:
        raise UsageError(f"{path}: expected an object with an \"atoms\" list")
    try:
        return FiniteBooleanAlgebra.from_json(data)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_distribution(tower: Tower, path: str) -> Distribution:
    data = _read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("masses"), dict):
        raise UsageError(f"{path}: expected an object with a \"masses\" mapping")
    try:
        return distribution_from_json(tower, data)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_top_element(tower: Tower, text: str) -> Element:
    try:
        return parse_element(tower.top, text)
    except ValueError as exc:
        raise UsageError(f"bad element {text!r}: {exc}") from exc


def _positivity(field: str) -> str:
    return "error" if field == "rational" else "uniform"


def _null_event(exc: NullEventError, field: str) -> int:
    hint = "; rerun with --field eps" if field == "rational" else ""
    print(f"null event: {exc}{hint}", file=sys.stderr)
    return 1


# --- commands ----------------------------------------------------------------


def cmd_build(args) -> int:
    algebra = _load_algebra(args.algebra)
    tower = Tower(algebra, max_atoms=args.max_atoms)
    if args.output:
        Path(args.output).write_text(json.dumps(tower.to_json(), indent=2) + "\n")
        print(tower.describe())
    else:
        print(json.dumps(tower.to_json(), indent=2))
    return 0


def cmd_extend(args) -> int:
    tower = _load_tower(args.tower, args.max_atoms)
    b = _parse_top_element(tower, args.element)
    tower.extend(b)
    out = args.output or args.tower
    Path(out).write_text(json.dumps(tower.to_json(), indent=2) + "\n")
    print(tower.describe())
    return 0


def cmd_cond(args) -> int:
    tower = _load_tower(args.tower, args.max_atoms).fork()
    x = _parse_top_element(tower, args.x)
    y = _parse_top_element(tower, args.y)
    value, stage = tower.conditional(x, y, mode=args.mode)
    if args.format == "json":
        print(json.dumps({"stage": stage, "element": str(value)}))
    else:
        print(f"stage {stage}: {value}")
    return 0


def _split_conditional(text: str):
    """'[BASE]BODY' -> (BASE, BODY); anything else -> None."""
    if not text.startswith("["):
        return None
    depth = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return text[1:i], text[i + 1:]
    raise UsageError(f"unbalanced brackets in {text!r}")


def cmd_prob(args) -> int:
    tower = _load_tower(args.tower, args.max_atoms).fork()
    dist = _load_distribution(tower, args.dist)
    positivity = _positivity(args.field)
    split = _split_conditional(args.query)
    try:
        if split is None:
            value = _parse_top_element(tower, args.query)
            stage = tower.top_index
        else:
            x = _parse_top_element(tower, split[0])
            y = _parse_top_element(tower, split[1])
            value, stage = tower.conditional(x, y)
        at_stage = extend_distribution(tower, dist, stage, positivity)
        p = prob_of(at_stage, value)
    except NullEventError as exc:
        return _null_event(exc, args.field)
    if args.format == "json":
        print(json.dumps({
            "query": args.query,
            "value": format_scalar(p),
            "standard": format_scalar(standard_part(p)),
        }))
    else:
        print(format_scalar(p))
    return 0


_VERIFY_ATOM_LIMIT = 16  # verify lists every element of the top stage per x


def cmd_verify(args) -> int:
    tower = _load_tower(args.tower, args.max_atoms)
    atoms = len(tower.top.atoms)
    if atoms > _VERIFY_ATOM_LIMIT:
        raise UsageError(f"verify takes a top stage of at most {_VERIFY_ATOM_LIMIT}"
                         f" atoms, this one has {atoms}")
    dist = _load_distribution(tower, args.dist)
    xs, axiom_xs = verify_events(tower.top)
    try:
        law = check_conditional_laws(
            tower, dist, xs, _positivity(args.field), axiom_xs)
    except NullEventError as exc:
        return _null_event(exc, args.field)
    axiom_failures = law["axiom_failures"]
    product_fail = law["product_failures"]
    marginal_fail = law["marginal_failures"]
    indep_fail = law["independence_failures"]
    ok = (not axiom_failures and product_fail == 0
          and marginal_fail == 0 and indep_fail == 0)
    if args.format == "json":
        print(json.dumps({
            "axiom_failures": axiom_failures,
            "pairs": law["pairs"],
            "product_failures": product_fail,
            "marginal_failures": marginal_fail,
            "independence_failures": indep_fail,
            "skipped_null": law["skipped_null"],
            "ok": ok,
            "witnesses": [{"law": name, "x": str(x), "y": str(y)}
                          for name, x, y in law["witnesses"]],
        }))
    else:
        if axiom_failures:
            for line in axiom_failures:
                print(f"axiom failure: {line}")
        else:
            print("axioms: ok")
        print(f"conditional law: {law['pairs']} pairs,"
              f" {product_fail} product failures,"
              f" {marginal_fail} marginal failures,"
              f" {indep_fail} independence failures,"
              f" {law['skipped_null']} skipped (null event)")
    return 0 if ok else 1


def cmd_lewis(args) -> int:
    algebra = _load_algebra(args.algebra)
    tower = Tower(algebra)
    x = _parse_top_element(tower, args.x)
    y = _parse_top_element(tower, args.y)
    dists = [_load_distribution(tower, p) for p in args.dists]
    ratios = []
    for k, d in enumerate(dists, 1):
        p_x = prob_of(d, x)
        if not p_x:
            print(f"null event: P({x}) = 0 under distribution {k}",
                  file=sys.stderr)
            return 1
        ratios.append(prob_of(d, x & y) / p_x)
    candidates = lewis_candidates(algebra, x, y, dists)
    if args.format == "json":
        print(json.dumps({
            "ratios": [format_scalar(r) for r in ratios],
            "candidates": [str(c) for c in candidates] or None,
        }))
    else:
        for k, r in enumerate(ratios, 1):
            print(f"P({y} | {x}) under distribution {k}: {format_scalar(r)}")
        joined = ", ".join(str(c) for c in candidates) if candidates else "none"
        print(f"elements with that probability in every distribution: {joined}")
    return 0


# --- dbl subcommands ----------------------------------------------------------


def _sequent_lines(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield number, line, parse_sequent(line)
        except FormulaParseError as exc:
            raise UsageError(f"{path}:{number}: {exc}") from exc


def _dbl_eval(args) -> int:
    names = [n.strip() for n in args.atoms.split(",")]
    try:
        algebra = FiniteBooleanAlgebra.from_names(",".join(names))
    except ValueError as exc:
        raise UsageError(f"bad --atoms: {exc}") from exc
    assignment = {}
    for binding in args.let or []:
        name, eq, literal = binding.partition("=")
        if not eq:
            raise UsageError(f"--let needs NAME=ELEMENT, got {binding!r}")
        try:
            variable = parse_formula(name) == Var(name)
        except FormulaParseError:
            variable = False
        if not variable:
            raise UsageError(f"--let {binding!r}: {name!r} is not a formula variable")
        if name in assignment:
            raise UsageError(f"--let binds {name!r} more than once")
        try:
            assignment[name] = parse_element(algebra, literal)
        except ValueError as exc:
            raise UsageError(f"--let {binding!r}: {exc}") from exc
    results = []
    failures = 0
    for number, text, sequent in _sequent_lines(args.file):
        missing = sorted(
            n for f in sequent for n in atom_names(f) if n not in assignment)
        if missing:
            raise UsageError(
                f"{args.file}:{number}: unbound variables: {', '.join(missing)}")
        tower = Tower(algebra, max_atoms=args.max_atoms)
        ok = holds(tower, assignment, sequent, mode=args.mode)
        failures += not ok
        results.append((number, text, ok))
    if args.format == "json":
        print(json.dumps([
            {"line": n, "sequent": t, "holds": ok} for n, t, ok in results]))
    else:
        for n, t, ok in results:
            print(f"line {n}: {'holds' if ok else 'fails'}  {t}")
    return 1 if failures else 0


def _dbl_search(args) -> int:
    found_any = False
    results = []
    for number, text, sequent in _sequent_lines(args.file):
        found = search_counterexample(sequent, samples=args.budget,
                                      seed=args.seed,
                                      max_atoms=args.max_atoms)
        if found is None:
            results.append((number, text, None))
        else:
            found_any = True
            results.append((number, text, found.describe()))
    if args.format == "json":
        print(json.dumps([
            {"line": n, "sequent": t, "counterexample": d}
            for n, t, d in results]))
    else:
        for n, t, d in results:
            if d is None:
                print(f"line {n}: no counterexample within budget  {t}")
            else:
                atoms = ",".join(d["atoms"])
                binding = ", ".join(
                    f"{k} = {v}" for k, v in d["assignment"].items())
                print(f"line {n}: counterexample over {{{atoms}}}:"
                      f" {binding}  {t}")
    return 1 if found_any else 0


def _dbl_check(args) -> int:
    bad = False
    reports_out = []
    for path in args.files:
        data = _read_json(path)
        try:
            derivation = derivation_from_json(data, name=Path(path).stem)
        except (KeyError, TypeError, FormulaParseError) as exc:
            raise UsageError(f"{path}: {exc}") from exc
        try:
            reports = check_derivation(derivation)
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from exc
        failures = [r for r in reports if not r.ok]
        if args.format == "json":
            reports_out.append({
                "name": derivation.name,
                "steps": len(reports),
                "failures": [
                    {"step": r.index, "rule": r.rule, "message": r.message}
                    for r in failures
                ],
            })
        elif failures:
            for r in failures:
                print(f"{derivation.name}: step {r.index} {r.rule}: {r.message}")
        else:
            print(f"{derivation.name}: ok ({len(reports)} steps)")
        bad = bad or bool(failures)
    if args.format == "json":
        print(json.dumps(reports_out))
    return 1 if bad else 0


def _dbl_corpus(args) -> int:
    corpus = build_corpus()
    if not args.name:
        for name in corpus:
            print(name)
        return 0
    if args.name not in corpus:
        raise UsageError(f"unknown derivation {args.name!r};"
                         " run `dbl corpus` for the list")
    print(json.dumps(derivation_to_json(corpus[args.name]), indent=2))
    return 0


def cmd_dbl(args) -> int:
    return globals()["_dbl_" + args.dbl_command](args)


def cmd_pairing(args) -> int:
    values = args.numbers
    if any(v < 0 for v in values):
        raise UsageError("pairing arguments must be nonnegative")
    if len(values) == 1:
        i, j = cantor_unpair(values[0])
        print(f"{i} {j}")
    elif len(values) == 2:
        print(cantor_pair(values[0], values[1]))
    else:
        raise UsageError("pairing takes one number (unpair) or two (pair)")
    return 0


# --- parser -------------------------------------------------------------------


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _add_max_atoms(parser, default: Optional[int] = None) -> None:
    """Unset (None) keeps the guard a loaded tower dump records."""
    parser.add_argument("--max-atoms", type=int, default=default,
                        help="growth guard for tower extension")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    A subcommand maps to its handler by name (``cmd_<command>``,
    ``_dbl_<command>``), looked up when it runs, so the parser holds no
    function objects and a handler replaced on the module is the one
    called.
    """
    parser = argparse.ArgumentParser(
        prog="bayesalg",
        description="Conditional extensions of finite Boolean algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a stage-0 tower dump")
    p.add_argument("algebra", help="JSON file with an \"atoms\" list")
    p.add_argument("-o", "--output", help="tower dump path (default: stdout)")
    _add_max_atoms(p, default=4096)

    p = sub.add_parser("extend", help="extend a tower by an event")
    p.add_argument("tower")
    p.add_argument("element", help="event literal at the top stage, e.g. '{a,c}'")
    p.add_argument("-o", "--output", help="dump path (default: in place)")
    _add_max_atoms(p)

    p = sub.add_parser("cond", help="conditional event [x]y and its stage")
    p.add_argument("tower")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--mode", choices=("auto", "fresh"), default="auto")
    _add_format(p)
    _add_max_atoms(p)

    p = sub.add_parser("prob", help="probability of an event or conditional")
    p.add_argument("tower")
    p.add_argument("dist")
    p.add_argument("query", help="element literal or '[x]y' conditional")
    p.add_argument("--field", choices=("rational", "eps"), default="rational")
    _add_format(p)
    _add_max_atoms(p)

    p = sub.add_parser("verify", help="extension axioms and probability law")
    p.add_argument("tower")
    p.add_argument("dist")
    p.add_argument("--field", choices=("rational", "eps"), default="rational")
    _add_format(p)
    _add_max_atoms(p)

    p = sub.add_parser("lewis", help="search for an event carrying P(y|x)")
    p.add_argument("algebra")
    p.add_argument("dists", nargs="+", help="distribution JSON files")
    p.add_argument("x")
    p.add_argument("y")
    _add_format(p)

    p = sub.add_parser("dbl", help="sequent logic: eval, search, check, corpus")
    dbl_sub = p.add_subparsers(dest="dbl_command", required=True)

    q = dbl_sub.add_parser("eval", help="evaluate sequents under a valuation")
    q.add_argument("file", help="one sequent per line")
    q.add_argument("--atoms", required=True, help="base atoms, e.g. a,c,d")
    q.add_argument("--let", action="append", metavar="NAME=ELEMENT")
    q.add_argument("--mode", choices=("auto", "fresh"), default="auto")
    _add_format(q)
    _add_max_atoms(q, default=4096)

    q = dbl_sub.add_parser("search", help="hunt for refuting valuations")
    q.add_argument("file", help="one sequent per line")
    q.add_argument("--budget", type=int, default=40,
                   help="valuations sampled per base algebra")
    q.add_argument("--seed", type=int, default=0)
    _add_format(q)
    _add_max_atoms(q, default=4096)

    q = dbl_sub.add_parser("check", help="validate derivation files")
    q.add_argument("files", nargs="+")
    _add_format(q)

    q = dbl_sub.add_parser("corpus", help="list or dump bundled derivations")
    q.add_argument("name", nargs="?")

    p = sub.add_parser("pairing", help="Cantor pair (two args) or unpair (one)")
    p.add_argument("numbers", type=int, nargs="+")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        for flag in ("max_atoms", "budget"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise UsageError(f"--{flag.replace('_', '-')} must be a"
                                 f" positive integer, got {value}")
        return globals()["cmd_" + args.command](args)
    except (UsageError, TowerGrowthError, TrivialEventError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
