"""Run one casimir-eigen CLI request with layer tracing installed from outside.

Usage (from the repository root, with src on PYTHONPATH):

    python3 bench/traced_cli.py closed-form --m 4 --json

The script imports the package, wraps the public functions of each module
in every namespace that binds them (modules bind names such as
``to_power_sum`` and ``verify_tuples`` at import time, so patching only the
defining module would miss calls), then calls ``cli.main(argv)``.  Nothing
under ``src/`` changes and the CLI's stdout is untouched.

Layer functions record spans ``[name, start, end, parent]``.  The MPoly and
Jet operators run 10^4-10^5 times per request, so they record aggregate
counts only.  At exit one line ``BENCH_TRACE <json>`` goes to stderr.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import time
from collections import Counter

TRACE_PREFIX = "BENCH_TRACE "

# (module, attribute) -> span name.  Several functions may share a name:
# self time keeps nested spans of one name from being counted twice.
SPANS = {
    ("cli", "main"): "cli.main",
    ("cli", "_cmd_elementary"): "cli.handler",
    ("cli", "_cmd_casimir"): "cli.handler",
    ("cli", "_cmd_closed_form"): "cli.handler",
    ("cli", "_cmd_verify"): "cli.handler",
    ("cli", "_cmd_tables"): "cli.handler",
    ("cli", "mpoly_to_obj"): "cli.render",
    ("cli", "closed_form_to_obj"): "cli.render",
    ("cli", "power_sum_to_obj"): "cli.render",
    ("cli", "verify_report_to_obj"): "cli.render",
    ("cli", "emit_polynomial_json"): "cli.render",
    ("cli", "_dump"): "cli.render",
    ("cli", "_format_value"): "cli.render",
    ("ratpoly", "ClosedForm.__str__"): "cli.render",
    ("ratpoly", "PowerSumPoly.__str__"): "cli.render",
    ("ratpoly", "to_power_sum"): "ratpoly.to_power_sum",
    ("ratpoly", "eliminate_last_var"): "ratpoly.eliminate_last_var",
    ("ratpoly", "interpolate_in_n"): "ratpoly.interpolate_in_n",
    ("casimir", "casimir_eigenvalue_patterned"): "casimir.patterned_sum",
    ("casimir", "closed_form"): "casimir.closed_form",
    ("casimir", "verify_tuples"): "casimir.verify_tuples",
    ("tuplegraph", "elementary_eigenvalue"): "tuplegraph.elementary_eigenvalue",
    ("tuplegraph", "enumerate_proper_cycles"): "tuplegraph.enumerate_proper_cycles",
    ("jetoracle", "build_inverse_matrix"): "jetoracle.build_inverse_matrix",
    ("jetoracle", "gram_schmidt_norms"): "jetoracle.gram_schmidt_norms",
    ("jetoracle", "eigenvalue_from_norms"): "jetoracle.eigenvalue_from_norms",
}


class Tracer:
    """Spans and counters of one process, kept in memory until exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def counted(self, fn, count):
        """Wrap ``fn`` so that ``count(args, result)`` runs after each call."""

        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            if result is not NotImplemented:
                count(args, result)
            return result

        return wrapper

    def dump(self) -> str:
        return TRACE_PREFIX + json.dumps({"spans": self.spans, "counts": self.counts}, separators=(",", ":"))


def _rebind(modules, original, replacement) -> None:
    """Replace ``original`` by ``replacement`` in every module and class namespace."""
    for module in modules:
        namespaces = [module] + [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, replacement)


def install(tracer: Tracer) -> None:
    """Install every span and counter."""
    from casimir_eigen import casimir, cli, jetoracle, ratpoly  # cli imports the remaining modules

    package = {name.split(".")[-1]: mod for name, mod in sys.modules.items() if name.startswith("casimir_eigen.")}
    modules = list(package.values())
    counts = tracer.counts

    def wrap(module_name, attr, replacement_for):
        owner = package[module_name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        _rebind(modules, original, replacement_for(original))

    for (module_name, attr), name in SPANS.items():
        wrap(module_name, attr, lambda fn, name=name: tracer.span(name, fn))

    # print() in cli writes the result; it is rendering too.
    cli.print = tracer.span("cli.render", print)

    def count_patterns(args, result):
        counts["casimir.patterns"] += len(result)

    def count_result_terms(args, result):
        counts["casimir.result_terms"] += len(result.terms)

    wrap("casimir", "_rank_patterns", lambda fn: tracer.counted(fn, count_patterns))
    wrap("casimir", "casimir_eigenvalue_patterned", lambda fn: tracer.counted(fn, count_result_terms))

    class CountingItertools:
        """itertools as seen by casimir.py, counting value combinations."""

        def __getattr__(self, name):
            return getattr(itertools, name)

        @staticmethod
        def combinations(iterable, r):
            pool = tuple(iterable)
            counts["casimir.combinations"] += math.comb(len(pool), r)
            return itertools.combinations(pool, r)

    casimir.itertools = CountingItertools()

    MPoly, Jet = ratpoly.MPoly, jetoracle.Jet

    def count_call(metric):
        def count(args, result):
            counts[metric] += 1

        return count

    def operand_terms(x):
        return len(x.terms) if isinstance(x, MPoly) else (1 if x else 0)

    def count_add(args, result):
        counts["ratpoly.mpoly_add.calls"] += 1
        counts["ratpoly.mpoly_add.terms"] += len(args[0].terms) + operand_terms(args[1])

    def count_mul(args, result):
        counts["ratpoly.mpoly_mul.calls"] += 1
        counts["ratpoly.mpoly_mul.term_pairs"] += len(args[0].terms) * operand_terms(args[1])

    def count_jet_mul(args, result):
        counts["jetoracle.jet_mul.calls"] += 1
        a, b = args
        if isinstance(b, Jet):
            counts["jetoracle.jet_mul.mask_pairs"] += len(a.coeffs) * len(b.coeffs)
            counts["jetoracle.jet_mul.useful_pairs"] += sum(
                1 for s1 in a.coeffs for s2 in b.coeffs if not s1 & s2
            )

    wrap("ratpoly", "MPoly.__init__", lambda fn: tracer.counted(fn, count_call("ratpoly.mpoly_new.calls")))
    wrap("ratpoly", "MPoly.__add__", lambda fn: tracer.counted(fn, count_add))
    wrap("ratpoly", "MPoly.__mul__", lambda fn: tracer.counted(fn, count_mul))
    wrap("jetoracle", "Jet.__mul__", lambda fn: tracer.counted(fn, count_jet_mul))
    wrap("jetoracle", "Jet.inv", lambda fn: tracer.counted(fn, count_call("jetoracle.jet_inv.calls")))
    wrap("jetoracle", "Jet.power", lambda fn: tracer.counted(fn, count_call("jetoracle.jet_power.calls")))


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from casimir_eigen import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        print(tracer.dump(), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
