"""Smoke test of the benchmark harness on a tiny request list.

Run from the repository root (about ten seconds):

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import run

TINY = [["closed-form", "--m", "3"], ["verify", "--m", "3", "--n", "3", "--exhaustive", "--json"]]
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _references() -> dict[str, str]:
    return json.loads(run.REFERENCE_FILE.read_text())


def _check_metrics(result: dict, printed: str, declared: list[dict]) -> None:
    assert result["metrics"].keys() == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert metric["name"] in printed


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    result = run.measure(TINY, 0, False, _references())
    printed = capsys.readouterr().out
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    _check_metrics(result, printed, BENCHMARK["end_to_end"])
    assert "error_rate: 0.0000 (0/2 requests)" in printed
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])


def test_traced_run_prints_every_per_layer_metric(capsys):
    result = run.measure(TINY, 0, True, _references())
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * len(TINY)  # traced, untraced, traced
    _check_metrics(result, printed, BENCHMARK["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["casimir.patterned_sum.calls"] == 6  # closed_form(3) samples n = 3..8
    assert metrics["tuplegraph.elementary_eigenvalue.calls"] == 2 * 27  # raw and shifted per tuple
    assert 0 < metrics["jetoracle.jet_mul.useful_ratio"] < 1


def test_wrong_output_fails_the_run(capsys):
    references = _references()
    references["closed-form --m 3"] += " "
    result = run.measure(TINY, 0, False, references)
    printed = capsys.readouterr().out
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] == 0.5
    assert "closed-form --m 3: stdout differs from the reference output" in printed


def test_every_drawable_request_has_a_reference():
    drawable = {" ".join(argv) for argv in run.reference_argvs()}
    assert drawable == _references().keys()
    for name in ("closed_form", "casimir_rank"):
        for seed in range(20):
            assert {" ".join(a) for a in run.WORKLOADS[name].requests(random.Random(seed))} <= drawable


def test_seed_changes_order_and_samples_but_not_request_count():
    for name, workload in run.WORKLOADS.items():
        first, again, second = (workload.requests(random.Random(s)) for s in (1, 1, 2))
        assert first == again
        assert first != second and len(first) == len(second)
    first, second = (run.verify_oracle_requests(random.Random(s)) for s in (1, 2))
    seeds = [{a[a.index("--seed") + 1] for a in reqs if "--seed" in a} for reqs in (first, second)]
    assert seeds[0].isdisjoint(seeds[1])
    assert [a[:4] for a in first] != [a[:4] for a in second]


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed_form", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
