"""Benchmark of the bayesalg CLI: three seeded closed-loop workloads.

    python3 bench/run.py --workload logic --seed 1 --seconds 20 --trace 0

One client in one process sends requests one after another; each request
is `bayesalg.cli.main(argv)` called in-process on freshly written input
files, with stdout and stderr captured, and its output is checked by an
oracle that does not call the package. With `--trace 0` the run reports
the end-to-end metrics; with `--trace 1` it runs one untraced round, then
traced rounds, and reports the per-layer metrics (see bench/README.md).
`--workload all` runs every workload in a child process, one after
another. The last line of stdout is one JSON object.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9
# Runs have about 220 to 1,000 requests. p95 would leave only 11 requests
# beyond it on the shortest prob-eps runs, and fewer on a slower host, so the
# tail is p90. It is fixed, so that a faster program is not compared at a
# higher percentile.
TAIL_PERCENTILE = 90
CLI_COMMANDS = ("cond", "extend", "prob", "verify", "lewis",
                "dbl_eval", "dbl_search", "dbl_check")

END_TO_END_UNITS = {"throughput_rps": "req/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_ratio": "ratio"}


def _benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=("logic", "prob-q", "prob-eps", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=_benchmark().get("run_seconds", 20),
                   help="request time to measure (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- the program under test ------------------------------------------------------


def _import_program():
    """Import bayesalg from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bayesalg" / "cli.py").is_file():
        raise SystemExit(f"bench: no program source at {src / 'bayesalg'}")
    sys.path.insert(0, str(src))
    import bayesalg.cli
    if Path(bayesalg.cli.__file__).resolve().parent != (src / "bayesalg").resolve():
        raise SystemExit(f"bench: imported bayesalg from {bayesalg.cli.__file__}")
    return bayesalg.cli


class Call:
    __slots__ = ("rc", "out", "err", "seconds", "reference")


# median time of reference_seconds() on the machine the bounds were set on
REFERENCE_MS = 1.25
# about 1 MB with the int objects: it stays in a core's own caches
_TABLE = [n * 7 + 1000 for n in range(8_000)]
_INDEX = list(range(len(_TABLE)))
_PROBES = [_INDEX[i] for i in random.Random(0).choices(_INDEX, k=40_000)]


def reference_work() -> int:
    """Fixed pure-Python work: scattered reads of a table that fits in a
    core's own caches. It tracks how fast the machine runs Python at the
    moment, and not how much memory the program touched before it."""
    total = 0
    for index in _PROBES:
        total += _TABLE[index]
    return total


def reference_seconds() -> float:
    """The second of two passes: the first, untimed, puts the table in the
    caches, so the timed pass starts from the same state whatever ran before."""
    reference_work()
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def normalised(seconds: list, references: list) -> list:
    """Each time rescaled to the reference speed: multiplied by REFERENCE_MS
    over the median reference time of the fifteen requests around it."""
    out = []
    for i, t in enumerate(seconds):
        window = references[max(0, i - 7):i + 8]
        out.append(t * REFERENCE_MS / 1000 / statistics.median(window))
    return out


def call(cli, argv) -> Call:
    out, err = io.StringIO(), io.StringIO()
    result = Call()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            result.rc = cli.main(argv)
        except Exception:  # a traceback is a failed request, not a crash
            result.rc = None
            err.write(traceback.format_exc())
        result.seconds = perf_counter() - start
    result.out, result.err = out.getvalue(), err.getvalue()
    return result


# --- one run -------------------------------------------------------------------


class Run:
    """Generated inputs for one workload and seed, and the request loop."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        from workloads import GENERATORS, Generator, interleave
        self.cli = cli
        self.req_dir = work / "req"
        self.req_dir.mkdir(parents=True)
        gen_dir = work / "gen"
        gen_dir.mkdir()
        rng = random.Random(f"{workload}:{seed}")
        generator = Generator(rng, self._plain, gen_dir)
        self.generated = GENERATORS[workload](generator)
        self.round = interleave(list(self.generated), rng)
        self.tag = 0
        self.failures: list = []
        self.deferred: list = []
        self.attempted = 0

    def _plain(self, argv):
        c = call(self.cli, argv)
        return c.rc, c.out, c.err

    def digest(self) -> str:
        h = hashlib.sha256()
        for req in self.round:
            h.update(json.dumps([req.kind, req.argv, sorted(
                (name, text) for name, (text, _) in req.files.items())]).encode())
        return h.hexdigest()[:16]

    def send(self, req) -> Call:
        from workloads import instantiate
        argv = instantiate(req, f"{self.tag % 100000:05d}", self.req_dir)
        self.tag += 1
        gc.collect()  # start each request with no garbage of earlier ones, as a new process would
        reference = reference_seconds()
        result = call(self.cli, argv)
        result.reference = reference
        self.attempted += 1
        if req.symbolic:
            self.deferred.append((req, result))
        else:
            self._check(req, result)
        return result

    def _check(self, req, result: Call) -> None:
        from workloads import Mismatch
        try:
            if result.rc is None:
                raise Mismatch("traceback: " + result.err.strip().splitlines()[-1])
            req.check(result.rc, result.out, result.err)
        except Mismatch as exc:
            self.failures.append(f"{req.group}: {exc}")
        except (ValueError, IndexError, KeyError) as exc:  # unparsable output
            self.failures.append(f"{req.group}: output not understood: {exc!r}")

    def finish_checks(self) -> None:
        for req, result in self.deferred:
            self._check(req, result)
        self.deferred.clear()

    def warm_up(self) -> "Run":
        """One request of each kind, so lazy imports and first calls are done."""
        seen = set()
        for req in self.generated:  # generation order, so the same shapes every seed
            if req.kind not in seen:
                seen.add(req.kind)
                self.send(req)
        return self


def timed(action, times: list, scaled: list):
    """Run `action` once; append its time raw and rescaled to the reference
    speed measured just before and after it."""
    references = [reference_seconds() for _ in range(5)]
    start = perf_counter()
    result = action()
    times.append(perf_counter() - start)
    references += [reference_seconds() for _ in range(5)]
    scaled.append(times[-1] * REFERENCE_MS / 1000 / statistics.median(references))
    return result


# a fresh interpreter importing the CLI from the checkout: what each CLI call
# pays before it parses its arguments
IMPORT_ARGV = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
               "import bayesalg.cli", str(ROOT / "src")]


def _setup(cli, workload, seed, work):
    """Import the CLI in a fresh interpreter, then generate inputs and warm
    up: SETUP_REPEATS times in turn, keeping the last run. Returns the run
    and the import and set-up times, each as (raw, rescaled)."""
    imports, setups, digests = ([], []), ([], []), set()
    failures, deferred, attempted = [], [], 0
    for k in range(SETUP_REPEATS):
        timed(lambda: subprocess.run(IMPORT_ARGV, cwd=ROOT, check=True), *imports)
        run = timed(lambda: Run(cli, workload, seed, work / f"setup{k}").warm_up(),
                    *setups)
        digests.add(run.digest())
        failures += run.failures
        deferred += run.deferred
        attempted += run.attempted
    if len(digests) != 1:
        raise SystemExit("bench: the generator is not deterministic")
    run.failures, run.deferred, run.attempted = failures, deferred, attempted
    # the benchmark's own inputs and oracles are not the program's garbage
    gc.collect()
    gc.freeze()
    return run, imports, setups


def _tail(latencies) -> float:
    """Nearest-rank TAIL_PERCENTILE."""
    ordered = sorted(latencies)
    return ordered[max(-(-TAIL_PERCENTILE * len(ordered) // 100) - 1, 0)]


def loop(run: Run, seconds: float):
    """Closed loop over whole rounds until `seconds` of request time have
    passed, so that every run has the same mix of requests."""
    latencies, references, kinds = [], [], []
    measured = 0.0
    i = 0
    while measured < seconds or i % len(run.round):
        req = run.round[i % len(run.round)]
        i += 1
        result = run.send(req)
        measured += result.seconds
        latencies.append(result.seconds)
        references.append(result.reference)
        kinds.append(req.kind)
    return latencies, references, kinds


def end_to_end(run: Run, seconds: float, setup_s: float):
    raw, references, kinds = loop(run, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.finish_checks()
    latencies = normalised(raw, references)
    measured = sum(latencies)
    metrics = {
        "throughput_rps": len(latencies) / measured,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": _tail(latencies) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1 - len(run.failures) / max(run.attempted, 1),
    }
    shares = {}
    by_kind: dict = {}
    for kind, t in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(t)
    for kind, ts in sorted(by_kind.items()):
        shares[kind] = {"requests": len(ts), "share": sum(ts) / measured,
                        "p50_ms": statistics.median(ts) * 1000}
    detail = {"requests": len(latencies), "measured_s": sum(raw),
              "reference_ms_median": statistics.median(references) * 1000,
              "raw": {"throughput_rps": len(raw) / sum(raw),
                      "latency_p50_ms": statistics.median(raw) * 1000,
                      "latency_tail_ms": _tail(raw) * 1000},
              "tail_percentile": TAIL_PERCENTILE,
              "tail_samples": len(latencies),
              "beyond_tail": sum(t > metrics["latency_tail_ms"] / 1000 for t in latencies),
              "kinds": shares}
    return metrics, detail


# --- traced run ------------------------------------------------------------------


def _round(run: Run, tracer=None):
    total, fields = 0.0, []
    for req in run.round:
        if tracer is not None:
            tracer.request = run.tag
            before = tracer.counts["field.ops"]
        result = run.send(req)
        total += result.seconds
        if tracer is not None and req.kind in ("prob", "verify"):
            fields.append(tracer.counts["field.ops"] - before)
    return total, fields


COUNTS = ("field.ops", "field.normalisations", "boolalg.algebras", "boolalg.atoms",
          "bayes.extend.calls", "bayes.atoms_adjoined", "bayes.conditional.calls",
          "bayes.embed.calls", "bayes.fork.calls", "prob.extend.calls",
          "prob.atoms_massed", "prob.verify_pair.calls", "prob.prob_of.calls",
          "prob.lewis.candidates", "dbl.holds.calls", "dbl.check.steps",
          "dbl.tautology.calls")
EXACT = ("field.normalisations", "bayes.atoms_adjoined", "boolalg.atoms",
         "prob.atoms_massed", "dbl.check.steps")
TIMES = {"field.arith_s": "field.arith", "field.text_s": "field.text",
         "boolalg.algebra_s": "boolalg.algebra", "boolalg.parse_s": "boolalg.parse",
         "bayes.extend_s": "bayes.extend", "bayes.embed_s": "bayes.embed",
         "bayes.from_json_s": "bayes.from_json", "bayes.axioms_s": "bayes.axioms",
         "prob.extend_s": "prob.extend", "prob.mass_check_s": "prob.mass_check",
         "prob.verify_pair_s": "prob.verify_pair", "prob.prob_of_s": "prob.prob_of",
         "prob.lewis_s": "prob.lewis", "dbl.holds_s": "dbl.holds",
         "dbl.search_s": "dbl.search", "dbl.check_s": "dbl.check",
         "dbl.tautology_s": "dbl.tautology", "dbl.parse_s": "dbl.parse"}


def per_layer(run: Run, workload: str, seconds: float, spans_path: Path):
    from spans import Tracer
    untraced, _ = _round(run)
    tracer = Tracer()
    tracer.install()
    rounds, per_round_counts, fields = [], [], []
    try:
        while True:
            before = dict(tracer.counts)
            took, f = _round(run, tracer)
            rounds.append(took)
            fields += f
            per_round_counts.append({k: v - before.get(k, 0)
                                     for k, v in tracer.counts.items()})
            if untraced + sum(rounds) + took > seconds:
                break
    finally:
        tracer.uninstall()
    run.finish_checks()
    n = len(rounds)
    c = per_round_counts[0]
    m = {name: c.get(name, 0) for name in COUNTS}
    m.update({name: tracer.time[bucket] / n for name, bucket in TIMES.items()})
    traced_total = sum(rounds)
    m.update({name[:-2] + "_share": tracer.time[bucket] / traced_total
              for name, bucket in TIMES.items()})

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0
    m["bayes.shortcut_ratio"] = ratio("bayes.conditional.shortcut",
                                      "bayes.conditional.nontrivial")
    m["prob.null_restart_ratio"] = ratio("prob.null_restarts", "prob.extend.calls")
    m["dbl.search.hit_ratio"] = ratio("dbl.search.hits", "dbl.search.valuations")

    mains = {s[0]: s for s in tracer.spans if s[1] == "cli.main"}
    cmds = [s for s in tracer.spans if s[1] == "cli.cmd"]
    overhead = sum(mains[s[0]][4] - mains[s[0]][3] - (s[4] - s[3]) for s in cmds)
    m["cli.overhead_s"] = overhead / n
    for cmd in CLI_COMMANDS:
        ts = [s[4] - s[3] for s in cmds if s[2] == cmd]
        m[f"cli.{cmd}.share"] = sum(ts) / traced_total
        m[f"cli.{cmd}.p50_ms"] = statistics.median(ts) * 1000 if ts else 0.0
    m["trace.overhead_ratio"] = statistics.median(rounds) / untraced

    invariants = {}
    if workload in ("logic", "prob-q"):
        invariants["field.ops == 0"] = m["field.ops"] == 0
        invariants["field.normalisations == 0"] = m["field.normalisations"] == 0
    if workload == "logic":
        invariants["prob.extend.calls == 0"] = m["prob.extend.calls"] == 0
    if workload == "prob-eps":
        invariants["field.ops >= 1 per prob/verify request"] = bool(fields) and min(fields) >= 1
    if n > 1:
        invariants["exact counts repeat across rounds"] = all(
            r.get(k, 0) == c.get(k, 0) for r in per_round_counts for k in EXACT)
    spans_path.write_text("\n".join(json.dumps(s) for s in tracer.spans) + "\n")
    detail = {"traced_rounds": n, "untraced_round_s": untraced, "traced_round_s": rounds,
              "exact_counts": {k: c.get(k, 0) for k in EXACT},
              "invariants": invariants, "spans_file": str(spans_path.relative_to(ROOT))}
    return m, detail


# --- reporting ---------------------------------------------------------------------


def machine() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def revision() -> dict:
    """The commit when the checkout is a git work tree, and a digest of the
    program source either way."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bayesalg").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest()[:16]}


def units(per_layer_names):
    out = {}
    for name in per_layer_names:
        if name.endswith("_ms"):
            out[name] = "ms"
        elif name.endswith("_s"):
            out[name] = "s"
        elif name.endswith(("ratio", "share")):
            out[name] = "ratio"
        else:
            out[name] = "count"
    return out


def run_one(args) -> int:
    cli = _import_program()
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        run, imports, setups = _setup(cli, args.workload, args.seed, work)
        setup_s = statistics.median(imports[1]) + statistics.median(setups[1])
        if args.trace:
            metrics, detail = per_layer(run, args.workload, args.seconds,
                                        results_dir / f"{stem}-spans.jsonl")
            reported = [m["name"] for m in _benchmark().get("per_layer", [])] or sorted(metrics)
            correct = not run.failures and all(detail["invariants"].values())
        else:
            metrics, detail = end_to_end(run, args.seconds, setup_s)
            reported = list(END_TO_END_UNITS)
            correct = not run.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)
    unit = {**units(metrics), **END_TO_END_UNITS}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_digest": run.digest(),
              "round_requests": len(run.round), "setup_runs_s": setups[0],
              "import_runs_s": imports[0], "machine": machine(), **revision(),
              "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
              "detail": detail, "failures": run.failures[:20]}
    (results_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, v in sorted(metrics.items()):
        print(f"{name:32s} {v:14.6g} {unit[name]}")
    print(json.dumps({k: report[k] for k in ("inputs_digest", "machine", "commit",
                                             "source_sha256")}))
    print(json.dumps({"detail": detail}))
    for failure in run.failures[:20]:
        print("FAILED", failure)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": unit[k]} for k in reported}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so memory and imports do not mix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("logic", "prob-q", "prob-eps"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {workload}")
        for name, metric in last["metrics"].items():
            print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}/{name}"] = metric
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
