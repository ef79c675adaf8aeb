"""Per-layer tracing from outside the package.

`Tracer.install` replaces the public functions and methods of each layer
with timing wrappers: in the class, or in every `bayesalg` module that
holds the function under its own name, so calls through names that `cli`
and `dbl` import directly are caught too. Spans nest on one stack. A
span's self time is its duration minus the time covered by child spans
of other layers; a bucket (one metric) adds the self time of its
outermost spans only, so recursion is not counted twice.

Element operations (`& | ~ <=`) and `Element` construction are not
wrapped: each costs about as much as a wrapper, so their time stays in
the caller's layer. Scalar arithmetic done inside `parse_scalar` and
`format_scalar` is left unwrapped and belongs to `field.text`. Nothing in
the program waits on a queue, a lock or I/O that another task serves, so
there are no wait metrics.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# buckets whose outermost spans are kept as records, next to the aggregates,
# when they are called from the CLI layer (the request's first layer below it)
COARSE = {"cli.main", "cli.cmd", "bayes.from_json", "bayes.extend",
          "bayes.conditional", "bayes.axioms", "prob.extend", "prob.verify_pair",
          "prob.lewis", "dbl.search", "dbl.check"}

_FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
              "__lt__", "__le__", "__gt__", "__ge__")


def _layer(module: str) -> str:
    return "dbl" if module.startswith("bayesalg.dbl") else module.split(".")[1]


class Tracer:
    def __init__(self):
        self.stack: list = []  # frames: [bucket, layer, start, other-layer time]
        self.depth = Counter()
        self.time = Counter()  # bucket -> self seconds of outermost spans
        self.counts = Counter()
        self.spans: list = []  # (request, bucket, name, start, end, parent bucket)
        self.request = -1
        self.in_text = 0
        self._undo: list = []

    # --- spans ------------------------------------------------------------

    def wrap(self, fn, bucket: str, layer: str, name, before=None, after=None,
             count=None, count_nested=False, text=False, scalar=False):
        stack, depth = self.stack, self.depth
        tracer = self

        def traced(*args, **kwargs):
            if scalar and tracer.in_text:
                return fn(*args, **kwargs)
            outermost = depth[bucket] == 0
            if count and (outermost or count_nested):
                tracer.counts[count] += 1
            state = before(args) if before else None
            frame = [bucket, layer, perf_counter(), 0.0]
            stack.append(frame)
            depth[bucket] += 1
            tracer.in_text += text
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.in_text -= text
                depth[bucket] -= 1
                stack.pop()
                duration = end - frame[2]
                if stack:
                    caller = stack[-1]
                    caller[3] += duration if caller[1] != layer else frame[3]
                if outermost:
                    tracer.time[bucket] += duration - frame[3]
                    parent = stack[-1][0] if stack else None
                    if bucket in COARSE and (parent is None or parent.startswith("cli.")):
                        label = name(args) if callable(name) else name
                        tracer.spans.append((tracer.request, bucket, label, frame[2],
                                             end, parent))
            if after:
                after(args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installation -----------------------------------------------------------

    def _replace_function(self, module, attr: str, **spec):
        original = getattr(module, attr)
        wrapped = self.wrap(original, layer=_layer(module.__name__), **spec)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("bayesalg"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def _replace_method(self, cls, attr: str, **spec):
        raw = cls.__dict__[attr]
        layer = _layer(cls.__module__)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, layer=layer, **spec))
        else:
            wrapped = self.wrap(raw, layer=layer, **spec)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self) -> None:
        from bayesalg import bayes, boolalg, cli, field, prob
        from bayesalg.dbl import proofs, search, semantics, syntax

        c = self.counts
        fn, meth = self._replace_function, self._replace_method

        # field: Q(e) arithmetic and scalar text
        scalar = field.InfinitesimalScalar
        for op in _FIELD_OPS:
            meth(scalar, op, bucket="field.arith", name=op, count="field.ops",
                 scalar=True)
        meth(scalar, "__init__", bucket="field.arith", name="normalise",
             count="field.normalisations", count_nested=True, scalar=True)
        for attr in ("parse_scalar", "format_scalar"):
            fn(field, attr, bucket="field.text", name=attr, text=True)

        # boolalg: algebra construction and element / label parsing
        def algebra_built(args, result, state):
            c["boolalg.algebras"] += 1
            c["boolalg.atoms"] += len(args[0].atoms)
        meth(boolalg.FiniteBooleanAlgebra, "__init__", bucket="boolalg.algebra",
             name="algebra", after=algebra_built)
        for attr in ("from_names", "from_json"):
            meth(boolalg.FiniteBooleanAlgebra, attr, bucket="boolalg.parse", name=attr)
        for attr in ("parse_element", "parse_atom_label"):
            fn(boolalg, attr, bucket="boolalg.parse", name=attr)

        # bayes: growth, conditionals, embeddings, forks, loading, axioms
        def extended(args, result, state):
            c["bayes.atoms_adjoined"] += len(args[0].algebra(result).atoms)

        def conditional_before(args):
            tower, x = args[0], args[1]
            return tower.top_index, 0 < len(x.atoms) < len(x.algebra.atoms)

        def conditional_after(args, result, state):
            top, nontrivial = state
            if nontrivial:
                c["bayes.conditional.nontrivial"] += 1
                c["bayes.conditional.shortcut"] += result[1] == top
        tower = bayes.Tower
        meth(tower, "extend", bucket="bayes.extend", name="extend",
             count="bayes.extend.calls", after=extended)
        meth(tower, "conditional", bucket="bayes.conditional", name="conditional",
             count="bayes.conditional.calls", before=conditional_before,
             after=conditional_after)
        for attr in ("push", "pull", "transpose", "mirror_closure", "fiber_map"):
            meth(tower, attr, bucket="bayes.embed", name=attr, count="bayes.embed.calls")
        meth(tower, "fork", bucket="bayes.fork", name="fork", count="bayes.fork.calls")
        meth(tower, "from_json", bucket="bayes.from_json", name="from_json")
        fn(bayes, "check_bayes_axioms", bucket="bayes.axioms", name="check_bayes_axioms")

        # prob: block-rule extension, validation, laws, queries, lewis scan
        def massed(args, result, state):
            c["prob.atoms_massed"] += len(result.masses)

        def tangible(args):
            if self.depth["prob.extend"]:
                c["prob.null_restarts"] += 1
        fn(prob, "extend_distribution", bucket="prob.extend", name="extend_distribution",
           count="prob.extend.calls")
        fn(prob, "_extend_once", bucket="prob.extend", name="extend_once", after=massed)
        fn(prob, "make_tangible", bucket="prob.tangible", name="make_tangible",
           before=tangible)
        meth(prob.Distribution, "__post_init__", bucket="prob.mass_check",
             name="mass_check")
        fn(prob, "verify_conditional_law", bucket="prob.verify_pair",
           name="verify_conditional_law", count="prob.verify_pair.calls")
        fn(prob, "prob_of", bucket="prob.prob_of", name="prob_of",
           count="prob.prob_of.calls")

        def scanned(args):
            c["prob.lewis.candidates"] += args[0].size()
        fn(prob, "lewis_candidates", bucket="prob.lewis", name="lewis_candidates",
           before=scanned)

        # dbl: semantics, search, proof checking, parsing
        fn(semantics, "holds", bucket="dbl.holds", name="holds", count="dbl.holds.calls")

        def searched(args, result, state):
            c["dbl.search.hits"] += result is not None
        fn(search, "search_counterexample", bucket="dbl.search", name="search",
           count="dbl.search.calls", after=searched)

        def sampled(args):
            if self.depth["dbl.search"]:
                c["dbl.search.valuations"] += 1
        fn(semantics, "random_valuation", bucket="dbl.valuation", name="random_valuation",
           before=sampled)

        def checked(args, result, state):
            c["dbl.check.steps"] += len(result)
        fn(proofs, "check_derivation", bucket="dbl.check", name="check_derivation",
           after=checked)
        fn(proofs, "is_tautology", bucket="dbl.tautology", name="is_tautology",
           count="dbl.tautology.calls")
        for attr in ("parse_sequent", "parse_formula"):
            fn(syntax, attr, bucket="dbl.parse", name=attr)
        fn(proofs, "derivation_from_json", bucket="dbl.parse", name="derivation_from_json")

        # cli: main and the command bodies
        fn(cli, "main", bucket="cli.main", name="main")
        for attr in ("cmd_cond", "cmd_extend", "cmd_prob", "cmd_verify", "cmd_lewis"):
            fn(cli, attr, bucket="cli.cmd", name=attr[4:])
        fn(cli, "cmd_dbl", bucket="cli.cmd",
           name=lambda args: "dbl_" + args[0].dbl_command)
