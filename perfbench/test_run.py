"""Checks of the benchmark itself: its correctness gate, tracer and metric table.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer, install

IDENTITY = ("identity", ["identity", "--n", "6", "--format", "json"], run._facts_identity(6))
POINTS = [((0, 1, 2),) * run.POINT_EVAL_SITES, ((2, 0, 1),) * run.POINT_EVAL_SITES]


@pytest.fixture(scope="module")
def qm():
    return run.load_package()


@pytest.fixture(scope="module")
def golden():
    return json.loads((run.HERE / "golden.json").read_text())["sha256"]


def test_correct_golden_gives_no_failures(qm, golden):
    summary = run.summarize([run.run_pass(qm, [IDENTITY], POINTS, golden)])
    assert summary["attempted"] == 3
    assert summary["failed"] == 0
    assert summary["breakdown"]["fail_frac"] == 0


def test_wrong_golden_raises_fail_frac(qm, golden):
    wrong = dict(golden)
    wrong[run.golden_key(IDENTITY[1])] = "0" * 64
    one_pass = run.run_pass(qm, [IDENTITY], POINTS, wrong)
    summary = run.summarize([one_pass])
    assert summary["failed"] == 1
    assert summary["breakdown"]["fail_frac"] > 0
    assert one_pass["ops"][0]["failures"] == ["payload sha256 differs from golden"]


def test_wrong_fact_is_a_failure(qm, golden):
    wrong_facts = ("identity", IDENTITY[1], run._facts_identity(5))
    summary = run.summarize([run.run_pass(qm, [wrong_facts], [], golden)])
    assert summary["failed"] == 1


def test_oracles_match_the_paper():
    assert [run.uniform_value(n) for n in range(3, 8)] == [6, 15, 36, 90, 225]
    assert [run.ghz_count(n) for n in range(3, 8)] == [2, 8, 30, 102, 336]


def test_tracing_keeps_payloads_and_is_removable(qm, golden):
    plain = run.run_pass(qm, [IDENTITY], POINTS, golden)
    tracer = Tracer()
    original_mul = qm.cyclotomic.CycInt.__mul__
    uninstall = install(tracer, run.trace_targets(qm))
    try:
        # names imported into other modules are wrapped as well
        for module, name in [(qm.hidden_variables, "run_search"),
                             (qm.generalized, "run_search"),
                             (qm._enumeration, "compare_real_coeffs"),
                             (qm.cli, "exhaustive_search")]:
            assert hasattr(getattr(module, name), "__wrapped__"), (module, name)
        traced = run.run_pass(qm, [IDENTITY], POINTS, golden, tracer)
    finally:
        uninstall()
    assert qm.cyclotomic.CycInt.__mul__ is original_mul
    assert qm.cyclotomic.CycInt.__rmul__ is original_mul
    assert traced["ops"][0]["sha256"] == plain["ops"][0]["sha256"]
    assert tracer.stats["cli"][0] == 1
    assert tracer.stats["mermin.expand_identity"][0] == 1
    assert tracer.stats["hidden_variables.hv_value_direct"][0] == len(POINTS)
    assert tracer.stats["cyclotomic.times_root"][0] > 0
    for calls, total_s, self_s in tracer.stats.values():
        assert 0 <= self_s <= total_s + 1e-9
    metrics = run.layer_metrics(tracer, 0.0, 0.1, 0.0)
    assert set(metrics) == set(run.PER_LAYER_UNITS)


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.MAIN_COMMAND)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path, ".perfbench").exists()
