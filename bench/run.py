"""Benchmark for casimir-eigen: closed-loop CLI workloads in fresh processes.

Usage, from the repository root:

    python3 bench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

One client sends one request at a time.  Every request is a fresh
``python -m casimir_eigen.cli ...`` process, because every CLI invocation a
user makes starts cold; a cache living across requests in one process would
show a gain no user sees.  The seed picks the request order, the output
format of some requests and the ``verify --seed`` values; the program only
receives argv.  A run replays the workload's request list in rounds until
``--seconds`` is spent.  A fixed calibration task (``calibrate.py``) runs
between every two timed processes, and each time is scaled by the
calibration runs around it: see the note above ``normalised``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the same
list through ``traced_cli.py``, which wraps each module's functions from
outside, and prints the per-layer metrics.  Every stdout is checked: see
``check_output``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 all outputs correct, 1 some check failed, 2 the package
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from traced_cli import TRACE_PREFIX

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference_outputs.json"

CLI = [sys.executable, "-m", "casimir_eigen.cli"]
TRACED_CLI = [sys.executable, str(BENCH_DIR / "traced_cli.py")]
SETUP_PROBE = [sys.executable, "-c", "from casimir_eigen.cli import build_parser; build_parser()"]
SETUP_PROBES_PER_ROUND = 2
CALIBRATION = [sys.executable, str(BENCH_DIR / "calibrate.py")]
CALIBRATION_OUTPUT = b"1540\n"
# Median wall time of one calibration run on the reference host in DESIGN.md,
# so that a normalised time reads as seconds on that host.
REFERENCE_CALIBRATION_S = 0.24
REQUEST_TIMEOUT_S = 60

FORMATS = ("text", "json")
CLOSED_FORM_ORDERS = (4, 4, 4, 3, 3)  # three m=4 requests keep the median on the headline command
CASIMIR_ORDER, CASIMIR_RANKS, CASIMIR_BASES = 5, (6, 7, 8), ("monomial", "power-sum")
# (m, n, random sample size); None is an exhaustive grid.  7^6 = 117,649
# tuples keeps (6, 7) under 200,000, so the population list is built.
VERIFY_SHAPES = ((6, 6, 100), (7, 7, 400), (8, 8, 300), (6, 7, 100), (4, 5, None))


def _format_flag(fmt: str) -> list[str]:
    return ["--json"] if fmt == "json" else []


def closed_form_argv(m: int, fmt: str) -> list[str]:
    return ["closed-form", "--m", str(m)] + _format_flag(fmt)


def casimir_argv(n: int, basis: str, fmt: str) -> list[str]:
    basis_flag = ["--basis", basis] if basis != "monomial" else []
    return ["casimir", "--m", str(CASIMIR_ORDER), "--n", str(n)] + basis_flag + _format_flag(fmt)


def closed_form_requests(rng: random.Random) -> list[list[str]]:
    formats = list(FORMATS) + [rng.choice(FORMATS)] + list(FORMATS)
    requests = [closed_form_argv(m, fmt) for m, fmt in zip(CLOSED_FORM_ORDERS, formats)]
    rng.shuffle(requests)
    return requests


def casimir_rank_requests(rng: random.Random) -> list[list[str]]:
    requests = [casimir_argv(n, basis, rng.choice(FORMATS)) for n in CASIMIR_RANKS for basis in CASIMIR_BASES]
    rng.shuffle(requests)
    return requests


def verify_oracle_requests(rng: random.Random) -> list[list[str]]:
    requests = []
    for m, n, count in VERIFY_SHAPES:
        mode = ["--exhaustive"] if count is None else ["--random", str(count), "--seed", str(rng.randrange(10**6))]
        requests.append(["verify", "--m", str(m), "--n", str(n)] + mode + ["--json"])
    rng.shuffle(requests)
    return requests


def reference_argvs() -> list[list[str]]:
    """Every closed-form and casimir request the generators can draw."""
    return [closed_form_argv(m, fmt) for m in sorted(set(CLOSED_FORM_ORDERS)) for fmt in FORMATS] + [
        casimir_argv(n, basis, fmt) for n in CASIMIR_RANKS for basis in CASIMIR_BASES for fmt in FORMATS
    ]


# -- workloads and what the trace must show on them ---------------------------

_COMMON = (
    "cli.main.calls", "cli.handler.calls", "cli.render.calls",
    "ratpoly.mpoly_new.calls", "ratpoly.mpoly_add.calls", "ratpoly.mpoly_mul.calls",
    "tuplegraph.enumerate_proper_cycles.calls",
)  # fmt: skip
_JET = (
    "jetoracle.build_inverse_matrix.calls", "jetoracle.gram_schmidt_norms.calls",
    "jetoracle.eigenvalue_from_norms.calls", "jetoracle.jet_mul.calls",
    "jetoracle.jet_inv.calls", "jetoracle.jet_power.calls",
)  # fmt: skip
_SYMBOLIC = (
    "casimir.patterned_sum.calls", "casimir.patterns", "casimir.combinations",
    "ratpoly.to_power_sum.calls", "ratpoly.eliminate_last_var.calls",
)  # fmt: skip
_VERIFY = ("casimir.verify_tuples.calls", "tuplegraph.elementary_eigenvalue.calls")
_CLOSED_FORM = ("casimir.closed_form.calls", "ratpoly.interpolate_in_n.calls")


@dataclass(frozen=True)
class Workload:
    requests: Callable[[random.Random], list[list[str]]]
    exercised: tuple[str, ...]  # counts that must be nonzero in a traced round
    bypassed: tuple[str, ...]  # counts that must be zero in a traced round


WORKLOADS = {
    "closed_form": Workload(closed_form_requests, _COMMON + _SYMBOLIC + _CLOSED_FORM, _JET + _VERIFY),
    "casimir_rank": Workload(casimir_rank_requests, _COMMON + _SYMBOLIC, _JET + _VERIFY + _CLOSED_FORM),
    "verify_oracle": Workload(verify_oracle_requests, _COMMON + _JET + _VERIFY, _SYMBOLIC + _CLOSED_FORM),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Self times are each span's smallest over the traced rounds; everything else is an exact count.
LAYER_SELF_TIMES = (
    "ratpoly.to_power_sum", "ratpoly.eliminate_last_var", "ratpoly.interpolate_in_n",
    "casimir.patterned_sum", "casimir.closed_form", "casimir.verify_tuples",
    "tuplegraph.elementary_eigenvalue", "tuplegraph.enumerate_proper_cycles",
    "jetoracle.build_inverse_matrix", "jetoracle.gram_schmidt_norms", "jetoracle.eigenvalue_from_norms",
    "cli.handler", "cli.render",
)  # fmt: skip
LAYER_COUNTS = (
    "ratpoly.to_power_sum.calls", "ratpoly.eliminate_last_var.calls",
    "ratpoly.mpoly_new.calls", "ratpoly.mpoly_add.calls", "ratpoly.mpoly_add.terms",
    "ratpoly.mpoly_mul.calls", "ratpoly.mpoly_mul.term_pairs",
    "casimir.patterned_sum.calls", "casimir.patterns", "casimir.combinations", "casimir.result_terms",
    "tuplegraph.elementary_eigenvalue.calls", "tuplegraph.enumerate_proper_cycles.calls",
    "jetoracle.jet_mul.calls", "jetoracle.jet_mul.mask_pairs", "jetoracle.jet_inv.calls",
    "jetoracle.jet_power.calls", "cli.stdout_bytes",
)  # fmt: skip
LAYER_RATIOS = {
    "casimir.pattern_useful_ratio": ("casimir.nonzero_patterns", "casimir.patterns"),
    "jetoracle.jet_mul.useful_ratio": ("jetoracle.jet_mul.useful_pairs", "jetoracle.jet_mul.mask_pairs"),
}
LAYERS = ("ratpoly", "tuplegraph", "jetoracle", "casimir", "cli")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in LAYER_SELF_TIMES}
    units.update({name: "bytes" if name.endswith("_bytes") else "count" for name in LAYER_COUNTS})
    units.update({name: "ratio" for name in LAYER_RATIOS})
    units["trace.overhead_s"] = "s"
    return units


# -- running requests ---------------------------------------------------------


@dataclass
class Outcome:
    argv: list[str]
    wall_s: float
    cpu_s: float
    stdout: bytes
    trace: dict | None
    error: str | None
    calibration: tuple[float, float] | None = None  # wall s, CPU s of the calibration runs around it


def _environment() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _spawn(command: list[str]) -> tuple[int | None, bytes, bytes, float, float]:
    """Run one process to completion: (exit code or None on timeout, stdout, stderr, wall s, CPU s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=_environment(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=REQUEST_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return code, out, err, wall, cpu


def check_output(argv: list[str], code: int | None, stdout: bytes, references: dict[str, str]) -> str | None:
    """Why the request's result is wrong, or None when it is right.

    closed-form and casimir stdout must equal the reference recorded from the
    seed commit byte for byte.  verify must exit 0 and report every selected
    tuple as matching under the alternating convention.
    """
    if code != 0:
        return "timed out" if code is None else f"exit code {code}"
    if argv[0] != "verify":
        expected = references.get(" ".join(argv))
        if expected is None:
            return "no reference output recorded"
        return None if stdout == expected.encode() else "stdout differs from the reference output"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "verify stdout is not JSON"
    m, n = int(argv[argv.index("--m") + 1]), int(argv[argv.index("--n") + 1])
    total = n**m if "--exhaustive" in argv else int(argv[argv.index("--random") + 1])
    if report.get("total") != total:
        return f"verify checked {report.get('total')} tuples, expected {total}"
    if report.get("mismatch") != [] or report.get("match_alternating") != total:
        return "verify reports a mismatch"
    return None


def run_request(argv: list[str], traced: bool, references: dict[str, str]) -> Outcome:
    code, out, err, wall, cpu = _spawn((TRACED_CLI if traced else CLI) + argv)
    error = check_output(argv, code, out, references)
    trace = None
    if traced and error is None:
        lines = [line for line in err.decode().splitlines() if line.startswith(TRACE_PREFIX)]
        if lines:
            trace = json.loads(lines[-1][len(TRACE_PREFIX):])
        else:
            error = "traced run wrote no trace"
    return Outcome(argv, wall, cpu, out, trace, error)


def setup_probe() -> Outcome:
    """A fresh interpreter that imports the CLI and builds its parser."""
    code, out, err, wall, cpu = _spawn(SETUP_PROBE)
    if code != 0:
        raise RuntimeError(f"cannot import casimir_eigen.cli: {err.decode().strip()}")
    return Outcome(["setup"], wall, cpu, out, None, None)


def calibrate() -> tuple[float, float]:
    """Wall and CPU time of one run of the calibration task."""
    code, out, err, wall, cpu = _spawn(CALIBRATION)
    if code != 0 or out != CALIBRATION_OUTPUT:
        raise RuntimeError(f"calibration task failed: {err.decode().strip() or out!r}")
    return wall, cpu


def run_rounds(requests, seconds, trace, references) -> tuple[dict[bool, list[list[Outcome]]], list[Outcome]]:
    """Replay the request list in rounds until ``seconds`` would be exceeded.

    Untraced: rounds U, U, ...  Traced: T, then U, T, U, T, ... so there are
    at least two traced rounds to compare and one untraced round to subtract.
    Set-up probes run before every untraced round, so that they sample the
    host over the whole run.  In untraced rounds the calibration task runs
    before and after every probe and request, and each gets the mean of the
    two.  Returns the rounds and the probes.
    """
    rounds: dict[bool, list[list[Outcome]]] = {False: [], True: []}
    probes: list[Outcome] = []

    def play(traced: bool) -> None:
        if traced:
            rounds[True].append([run_request(argv, True, references) for argv in requests])
            return
        before = calibrate()

        def calibrated(outcome: Outcome) -> Outcome:
            nonlocal before
            after = calibrate()
            outcome.calibration = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
            before = after
            return outcome

        probes.extend(calibrated(setup_probe()) for _ in range(SETUP_PROBES_PER_ROUND))
        rounds[False].append([calibrated(run_request(argv, False, references)) for argv in requests])

    start = time.perf_counter()
    if trace:
        play(True)
    while True:
        cycle_start = time.perf_counter()
        play(False)
        if trace:
            play(True)
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return rounds, probes


# -- metrics ------------------------------------------------------------------
#
# On a shared 2-core host, the speed at which Python runs drifts by up to
# 1.7x within a run and between runs, for periods longer than a run.  So the
# end-to-end times are normalised: each timed process is scaled by
# REFERENCE_CALIBRATION_S over the mean of the calibration runs just before
# and after it, which reads as seconds on the reference host, and each
# request counts the median of its repeats.  Over five seeds on a noisy
# host, raw times moved by 18-27% (IQR over median), normalised ones by
# 5-8%.  bench/DESIGN.md has the numbers.


def normalised(outcome: Outcome, attribute: str) -> float:
    """The outcome's wall or CPU time scaled to the reference host by the calibration runs around it."""
    calibration = outcome.calibration[0 if attribute == "wall_s" else 1]
    return getattr(outcome, attribute) * REFERENCE_CALIBRATION_S / calibration


def per_request(rounds: list[list[Outcome]], attribute: str) -> list[float]:
    """Per request in the list, the median normalised value over every repeat of the same argv."""
    repeats: dict[tuple[str, ...], list[float]] = {}
    for outcome in (o for r in rounds for o in r):
        repeats.setdefault(tuple(outcome.argv), []).append(normalised(outcome, attribute))
    return [statistics.median(repeats[tuple(o.argv)]) for o in rounds[0]]


def fastest(rounds: list[list[Outcome]], attribute: str) -> list[float]:
    """Per request in the list, the smallest value over every repeat of the same argv."""
    best: dict[tuple[str, ...], float] = {}
    for outcome in (o for r in rounds for o in r):
        key = tuple(outcome.argv)
        best[key] = min(best.get(key, float("inf")), getattr(outcome, attribute))
    return [best[tuple(o.argv)] for o in rounds[0]]


def end_to_end_metrics(rounds: list[list[Outcome]], probes: list[Outcome]) -> dict[str, float]:
    outcomes = [o for r in rounds for o in r]
    walls = per_request(rounds, "wall_s")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(normalised(p, "wall_s") for p in probes),
        "wall_s": sum(walls),
        "latency_p50_s": statistics.median(walls),
        "cpu_s": sum(per_request(rounds, "cpu_s")),
        "peak_rss_mb": peak_kb / 1024,
        "success_rate": sum(o.error is None for o in outcomes) / len(outcomes),
    }


def aggregate_trace(round_: list[Outcome]) -> tuple[Counter, Counter]:
    """Exact counts and per-span self times of one traced round.

    A span's self time is its duration minus its direct children's, which
    never overlap because every call is synchronous.
    """
    counts: Counter = Counter()
    self_s: Counter = Counter()
    for outcome in round_:
        spans = outcome.trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            counts[f"{name}.calls"] += 1
            self_s[name] += end - start - child[index]
            if name == "tuplegraph.enumerate_proper_cycles" and parent >= 0 and spans[parent][0] == "casimir.patterned_sum":
                counts["casimir.nonzero_patterns"] += 1
        counts.update(outcome.trace["counts"])
        counts["cli.stdout_bytes"] += len(outcome.stdout)
    return counts, self_s


def layer_metrics(traced: list[list[Outcome]], untraced: list[list[Outcome]], aggregates) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and each module's share of the traced self time."""
    counts = aggregates[0][0]
    self_s = {name: min(s[name] for _, s in aggregates) for name in set().union(*(s for _, s in aggregates))}
    metrics: dict[str, float] = {}
    for name in LAYER_SELF_TIMES:
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in LAYER_COUNTS:
        metrics[name] = counts[name]
    for name, (num, den) in LAYER_RATIOS.items():
        metrics[name] = counts[num] / counts[den] if counts[den] else 0.0
    metrics["trace.overhead_s"] = sum(fastest(traced, "wall_s")) - sum(fastest(untraced, "wall_s"))
    total = sum(self_s.values())
    shares = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / total for layer in LAYERS}
    return metrics, shares


def trace_problems(aggregates, workload: Workload | None) -> list[str]:
    """Self-checks of the traced run: exact counts repeat, layers hit and bypassed as designed."""
    all_counts = [counts for counts, _ in aggregates]
    problems = [
        f"traced round {i + 1} counts differ from round 1: {sorted(k for k in set(c) | set(all_counts[0]) if c[k] != all_counts[0][k])}"
        for i, c in enumerate(all_counts[1:], start=1)
        if c != all_counts[0]
    ]
    if workload is not None:
        counts = all_counts[0]
        problems += [f"{k} is 0 on a workload meant to exercise it" for k in workload.exercised if not counts[k]]
        problems += [f"{k} is {counts[k]} on a workload meant to bypass it" for k in workload.bypassed if counts[k]]
    return problems


# -- one run ------------------------------------------------------------------


def measure(requests, seconds: float, trace: bool, references: dict[str, str], workload: Workload | None = None) -> dict:
    """Run the request list for ``seconds``, print a readable report, return the result object."""
    setup_probe()  # writes the bytecode cache, which an installed package already has
    rounds, probes = run_rounds(requests, seconds, trace, references)
    outcomes = [o for rs in rounds.values() for r in rs for o in r]
    failures = [o for o in outcomes if o.error]
    problems = [f"{' '.join(o.argv)}: {o.error}" for o in failures]
    untraced = rounds[False]
    print(f"rounds: {len(untraced)} untraced, {len(rounds[True])} traced; {len(outcomes)} requests")
    for traced, rs in rounds.items():
        if rs:
            walls = " ".join(f"{sum(o.wall_s for o in r):.3f}" for r in rs)
            print(f"  {'traced' if traced else 'untraced'} round wall s: {walls}")
    if trace:
        if not failures:
            aggregates = [aggregate_trace(r) for r in rounds[True]]
            problems += trace_problems(aggregates, workload)
            metrics, shares = layer_metrics(rounds[True], untraced, aggregates)
        else:
            metrics, shares = {name: 0.0 for name in per_layer_units()}, {}
        units = per_layer_units()
        print("self-time share by module: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        metrics = end_to_end_metrics(untraced, probes)
        units = END_TO_END
        print(f"error_rate: {len(failures) / len(outcomes):.4f} ({len(failures)}/{len(outcomes)} requests)")
        calibrations = [o.calibration[0] for o in probes + [o for r in untraced for o in r]]
        print(f"times are normalised to a {REFERENCE_CALIBRATION_S} s calibration run; the calibration runs around "
              f"each timed process took {min(calibrations):.3f}-{max(calibrations):.3f} s here "
              f"(median {statistics.median(calibrations):.3f} s)")
        print(f"each request counts the median of its {len(untraced)} or more repeats; latency_p50_s is the median of "
              f"{len(requests)} requests, setup_s the median of {len(probes)} probes")
        print("  normalised s  raw median s  request")
        for argv, wall in zip(requests, per_request(untraced, "wall_s")):
            raw = statistics.median(o.wall_s for r in untraced for o in r if o.argv == argv)
            print(f"  {wall:12.3f}  {raw:12.3f}  {' '.join(argv)}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "casimir_eigen" / "cli.py").is_file() or not REFERENCE_FILE.is_file():
        print(f"error: {ROOT} holds no casimir_eigen sources or no reference outputs", file=sys.stderr)
        return 2
    references = json.loads(REFERENCE_FILE.read_text())
    workload = WORKLOADS[args.workload]
    requests = workload.requests(random.Random(args.seed))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    print(f"request list ({len(requests)} requests per round, one client, closed loop):")
    for argv_ in requests:
        print("  casimir-eigen " + " ".join(argv_))
    result = measure(requests, args.seconds, bool(args.trace), references, workload)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
