#!/usr/bin/env python3
"""Benchmark of the qudit_mermin toolkit: exact searches and exact verifications.

Run from the repository root:

    python3 perfbench/run.py --workload ratio-search --seed 1 --seconds 20 --trace 0

Workloads (sizes are fixed; the seed picks only the ``verify`` variant and
the point-evaluation assignments, since exhaustive searches cover their whole
space):

* ``ratio-search``   -- ``search --n 7 --mode ratio`` and
  ``general --d 5 --n 2 --conjecture``; the enumeration engine dominates.
* ``full-search``    -- ``search --n 5 --mode full --workers 2``; the termwise
  scan in ``hidden_variables``, the fork pool and the exact merge.
* ``quantum-verify`` -- ``verify --n 12``, ``verify --d 7 --n 5``,
  ``identity --n 6``, ``witness --n 8``, ``table1 --n-max 12`` and a batch of
  single hidden-variable evaluations at N = 8; ring arithmetic dominates and
  the enumeration engine is never called.

The CLI is driven in this one process, as ``qudit-mermin`` would run it, with
``--workers`` passed explicitly (never above the CPU count) and BLAS/OpenMP
threads pinned to 1. Every operation is checked: the sha256 of each JSON
payload against ``golden.json`` and the exact facts the payload states
(eigenvalue d^(N-1), maximum equal to the uniform value with 3^N maximizers,
and so on, from oracles written here); each point evaluation must satisfy
|3v|^2 = |P|^2 exactly.

With ``--trace 0`` the run starts whole passes until ``--seconds`` have
passed and prints the end-to-end metrics (medians over passes). With ``--trace 1`` it
makes one untraced and one traced pass, prints the per-layer metrics of the
traced pass with the tracing overhead, and counts as failed any payload whose
hash differs between the two passes. The last stdout line is the result
object; the line before it is the full report, also written with the spans
under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 11
POINT_EVAL_SITES = 8
POINT_EVAL_COUNT = 240
FULL_SEARCH_WORKERS = 2

_clock = time.perf_counter

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qudit_mermin
from qudit_mermin.cyclotomic import _alpha_powers, _root_table, order_params
t1 = time.perf_counter()
for m in (9, 25, 49):
    order_params(m); _alpha_powers(m); _root_table(m)
print(t1 - t0, time.perf_counter() - t0)
"""


# ---- exact oracles, independent of the package ---------------------------

def uniform_value(n: int) -> int:
    """(A^N + B^N + (-C)^N)/3 from the cosines; exact after rounding for N <= 20."""
    total = sum((1 + 2 * math.cos(2 * math.pi * k / 9)) ** n for k in (1, 2, 4))
    return round(total / 3)


def ghz_count(n: int) -> int:
    return 2 * (3 ** (n - 1) - uniform_value(n)) // 3


def _facts_search(n: int, mode: str):
    def check(r):
        u = uniform_value(n)
        base = {
            "max_equals_uniform": r["max_equals_uniform"] is True,
            "uniform_value": r["uniform_value"] == u,
        }
        if mode == "ratio":
            base.update(
                max_sq=r["max_sq_coeffs"] == [(3 * u) ** 2] + [0] * 5,
                num_maximizers=r["num_maximizers"] == 3**n,
                scanned=r["assignments_scanned"] == 9**n,
            )
        else:
            base.update(
                max_sq=r["max_sq_coeffs"] == [u * u] + [0] * 5,
                ratio_agreement=r["ratio_agreement_max_abs_dev"] <= 1e-9,
                scanned=r["assignments_scanned"] == 27**n,
            )
        return base

    return check


def _facts_conjecture(d: int, n: int, maximizers: int):
    def check(r):
        c = r["conjecture"]
        return {
            "eigenvalue": r["eigenvalue"] == d ** (n - 1) and r["match"] is True,
            "uniform_is_max": c["uniform_is_max"] is True,
            "num_maximizers": c["num_maximizers"] == maximizers,
            "scanned": c["assignments_scanned"] == d ** ((d - 1) * n),
        }

    return check


def _facts_verify(d: int, n: int, variant: int):
    def check(r):
        return {
            "eigenvalue": r["eigenvalue"] == d ** (n - 1),
            "match": r["match"] is True,
            "variant": r["variant"] == variant,
        }

    return check


def _facts_identity(n: int):
    def check(r):
        return {
            "matches": r["matches"] is True,
            "n_words": r["n_words"] == 3**n,
            "n_surviving": r["n_surviving"] == 3 ** (n - 1),
            "n_vanishing": r["n_vanishing"] == 3**n - 3 ** (n - 1),
        }

    return check


def _facts_witness(n: int):
    def check(r):
        return {
            "count": r["count"] == r["expected_count"] == ghz_count(n),
            "rows": len(r["rows"]) == r["count"],
            "all_contradict": r["all_contradict"] is True,
        }

    return check


def _facts_table1(n_min: int, n_max: int):
    def check(r):
        want = [
            (n, 3 ** (n - 1), uniform_value(n), ghz_count(n))
            for n in range(n_min, n_max + 1)
        ]
        got = [(x["N"], x["M_Q"], x["M_C"], x["N_GHZ"]) for x in r["rows"]]
        return {"rows": got == want}

    return check


# ---- workloads --------------------------------------------------------------

MAIN_COMMAND = {
    "ratio-search": "search_ratio_s",
    "full-search": "search_full_s",
    "quantum-verify": "verify_s",
}


def build_workload(name: str, seed: int):
    """Commands ``(label, argv, facts)`` and point-evaluation inputs for a workload."""
    rng = random.Random(seed)
    if name == "ratio-search":
        commands = [
            ("search_ratio_s",
             ["search", "--n", "7", "--mode", "ratio", "--workers", "1"],
             _facts_search(7, "ratio")),
            ("conjecture_s",
             ["general", "--d", "5", "--n", "2", "--conjecture", "--workers", "1"],
             _facts_conjecture(5, 2, 625)),
        ]
        points = []
    elif name == "full-search":
        workers = min(FULL_SEARCH_WORKERS, len(os.sched_getaffinity(0)))
        commands = [
            ("search_full_s",
             ["search", "--n", "5", "--mode", "full", "--workers", str(workers)],
             _facts_search(5, "full")),
        ]
        points = []
    elif name == "quantum-verify":
        variant = rng.randrange(3)
        commands = [
            ("verify_s", ["verify", "--n", "12", "--variant", str(variant)],
             _facts_verify(3, 12, variant)),
            ("verify_d7", ["verify", "--d", "7", "--n", "5"], _facts_verify(7, 5, 0)),
            ("identity", ["identity", "--n", "6"], _facts_identity(6)),
            ("witness", ["witness", "--n", "8"], _facts_witness(8)),
            ("table1", ["table1", "--n-max", "12"], _facts_table1(3, 12)),
        ]
        points = [
            tuple(
                (rng.randrange(3), rng.randrange(3), rng.randrange(3))
                for _ in range(POINT_EVAL_SITES)
            )
            for _ in range(POINT_EVAL_COUNT)
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    # Labels ending in _s are timed in the report; the sub-second commands are
    # checked and count in wall_s, but get no timing of their own.
    commands = [(label, argv + ["--format", "json"], facts) for label, argv, facts in commands]
    return commands, points


def golden_key(argv) -> str:
    """Golden entries are keyed without ``--workers``: payloads do not depend on it."""
    argv = list(argv)
    if "--workers" in argv:
        i = argv.index("--workers")
        del argv[i:i + 2]
    return " ".join(argv)


# ---- running and checking ------------------------------------------------------

def load_package():
    sys.path.insert(0, str(SRC))
    import qudit_mermin
    import qudit_mermin.cli

    if not Path(qudit_mermin.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qudit_mermin was imported from {qudit_mermin.__file__}, not {SRC}")
    return qudit_mermin


def run_cli(qm, argv, tracer=None):
    """Run one CLI command in this process; return (exit code, stdout text)."""
    import click

    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli") if tracer else contextlib.nullcontext()
    rc = 0
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            qm.cli.cli.main(args=argv, prog_name="qudit-mermin", standalone_mode=False)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            rc = exc.exit_code
    return rc, out.getvalue()


def check_command(argv, facts, golden, rc, text) -> tuple[str, list[str]]:
    """Payload sha256 and the list of failed checks (empty when correct)."""
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    if sha != golden.get(golden_key(argv)):
        failures.append("payload sha256 differs from golden")
    try:
        results = json.loads(text)["results"]
        failures += [f"fact {k}" for k, ok in facts(results).items() if not ok]
    except (ValueError, KeyError, TypeError) as exc:
        failures.append(f"payload unreadable: {exc!r}")
    return sha, failures


def point_eval(qm, op, values):
    """Evaluate one assignment both ways; return (latency s, exact |3v|^2 == |P|^2)."""
    hv = qm.hidden_variables
    assignment = hv.HVAssignment(values)
    start = _clock()
    v = hv.hv_value_direct(assignment, op)
    ratios = assignment.ratios
    p = hv.hv_value_product_exact([r for r, _ in ratios], [s for _, s in ratios])
    latency = _clock() - start
    v3 = v * 3
    return latency, v3 * v3.conjugate() == p * p.conjugate()


def run_pass(qm, commands, points, golden, tracer=None) -> dict:
    ops = []
    latencies = []
    point_failures = []
    start = _clock()
    for label, argv, facts in commands:
        if tracer:
            tracer.request = label
        op_start = _clock()
        try:
            rc, text = run_cli(qm, argv, tracer)
            seconds = _clock() - op_start
            sha, failures = check_command(argv, facts, golden, rc, text)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            seconds, sha = _clock() - op_start, None
            failures = [traceback.format_exc(limit=3)]
        ops.append({"label": label, "argv": argv, "seconds": seconds,
                    "sha256": sha, "failures": failures})
    if points:
        if tracer:
            tracer.request = "point_eval"
        op = qm.mermin.build_mermin(3, POINT_EVAL_SITES, 0)
        for values in points:
            try:
                latency, ok = point_eval(qm, op, values)
                latencies.append(latency)
                note = "|3v|^2 != |P|^2"
            except Exception:
                ok, note = False, traceback.format_exc(limit=3)
            if not ok:
                point_failures.append({"values": values, "failure": note})
    return {
        "wall_s": _clock() - start,
        "ops": ops,
        "point_latencies_s": latencies,
        "point_attempted": len(points),
        "point_failures": point_failures,
    }


def measure_setup() -> dict:
    """Fresh-process import plus warming the ring tables, several times."""
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        import_s, total_s = map(float, proc.stdout.split())
        imports.append(import_s)
        totals.append(total_s)
    return {"setup_s": statistics.median(totals), "import_s": statistics.median(imports),
            "samples_s": totals}


def warm(qm) -> None:
    cyc = qm.cyclotomic
    for m in (9, 25, 49):
        cyc.order_params(m)
        cyc._alpha_powers(m)
        cyc._root_table(m)


# ---- traced run ----------------------------------------------------------------

def _on_conjugate(tracer, args, result) -> None:
    if tracer.active["enumeration.run_search"]:
        tracer.counts["band_candidates"] += 1


def _on_run_search(tracer, args, result) -> None:
    space = args[0]
    phi = len(space.factors[0][0].coeffs)
    tracer.counts["assignments"] += result.assignments_scanned
    tracer.counts["maximizers"] += result.num_maximizers
    tracer.counts["kernel_macs"] += space.size * (space.n_sites - 1) * space.slots * phi**2


def _on_resolve_workers(tracer, args, result) -> None:
    tracer.counts["workers"] = max(tracer.counts["workers"], result)


def trace_targets(qm):
    """(name, owner, attribute, keep_span, hook): hot ring calls keep no spans."""
    cyc, ops, mer = qm.cyclotomic, qm.qudit_ops, qm.mermin
    hv, enum, gen = qm.hidden_variables, qm._enumeration, qm.generalized
    return [
        ("cyclotomic.mul", cyc.CycInt, "__mul__", False, None),
        ("cyclotomic.times_root", cyc.CycInt, "times_root", False, None),
        ("cyclotomic.conjugate", cyc.CycInt, "conjugate", False, _on_conjugate),
        ("cyclotomic.reduce", cyc, "_reduce", False, None),
        ("cyclotomic.compare", cyc, "compare_real_coeffs", False, None),
        ("cyclotomic.mp_fallback", cyc, "mp_real_value", False, None),
        ("qudit_ops.apply_word", ops, "apply_word", False, None),
        ("qudit_ops.ghz_state", ops, "ghz_state", False, None),
        ("qudit_ops.eigenphase", ops, "eigenphase", False, None),
        ("mermin.build_mermin", mer, "build_mermin", True, None),
        ("mermin.verify_eigenvalue", mer, "verify_eigenvalue", True, None),
        ("mermin.counts_by_position", mer, "counts_by_position", True, None),
        ("mermin.expand_identity", mer, "expand_identity", True, None),
        ("hidden_variables.exhaustive_search", hv, "exhaustive_search", True, None),
        ("hidden_variables.hv_value_direct", hv, "hv_value_direct", True, None),
        ("hidden_variables.hv_value_product_exact", hv, "hv_value_product_exact", True, None),
        ("hidden_variables.ghz_contradiction_count", hv, "ghz_contradiction_count", True, None),
        ("hidden_variables.contradiction_witness", hv, "contradiction_witness", False, None),
        ("enumeration.run_search", enum, "run_search", True, _on_run_search),
        ("enumeration.full_space_scores", enum, "full_space_scores", True, None),
        ("enumeration.resolve_workers", enum, "resolve_workers", False, _on_resolve_workers),
        ("generalized.conjecture_search", gen, "conjecture_search", True, None),
        ("generalized.verify_general_eigenvalue", gen, "verify_general_eigenvalue", True, None),
        ("generalized.build_general_mermin", gen, "build_general_mermin", True, None),
        ("generalized.uniform_factors", gen, "uniform_factors", True, None),
        ("generalized.general_uniform_value", gen, "general_uniform_value", True, None),
    ]


def layer_metrics(tracer, child_cpu_s: float, import_s: float, overhead_s: float) -> dict:
    def stat(name):
        return tracer.stats.get(name, (0, 0.0, 0.0))

    counts = tracer.counts
    search_s = stat("enumeration.run_search")[1]
    candidates = counts["band_candidates"]
    workers = counts["workers"]
    scan_s = stat("hidden_variables.exhaustive_search")[1]
    return {
        "enumeration.run_search.self_s": stat("enumeration.run_search")[2],
        "enumeration.assignments_per_s": counts["assignments"] / search_s if search_s else 0.0,
        "enumeration.kernel_macs": counts["kernel_macs"],
        "enumeration.band_candidates": candidates,
        "enumeration.band_useful_ratio": counts["maximizers"] / candidates if candidates else 0.0,
        "enumeration.full_space_scores.s": stat("enumeration.full_space_scores")[1],
        "hidden_variables.exhaustive_search.self_s": stat("hidden_variables.exhaustive_search")[2],
        "hidden_variables.hv_value_direct.s": stat("hidden_variables.hv_value_direct")[1],
        "hidden_variables.hv_value_product_exact.s":
            stat("hidden_variables.hv_value_product_exact")[1],
        "cyclotomic.mul.calls": stat("cyclotomic.mul")[0],
        "cyclotomic.mul.s": stat("cyclotomic.mul")[1],
        "cyclotomic.times_root.calls": stat("cyclotomic.times_root")[0],
        "cyclotomic.times_root.s": stat("cyclotomic.times_root")[1],
        "cyclotomic.conjugate.calls": stat("cyclotomic.conjugate")[0],
        "cyclotomic.reduce.calls": stat("cyclotomic.reduce")[0],
        "cyclotomic.compare.calls": stat("cyclotomic.compare")[0],
        "cyclotomic.mp_fallback.calls": stat("cyclotomic.mp_fallback")[0],
        "qudit_ops.apply_word.calls": stat("qudit_ops.apply_word")[0],
        "qudit_ops.apply_word.s": stat("qudit_ops.apply_word")[1],
        "mermin.verify_eigenvalue.self_s": stat("mermin.verify_eigenvalue")[2],
        "mermin.build_mermin.s": stat("mermin.build_mermin")[1],
        "mermin.expand_identity.s": stat("mermin.expand_identity")[1],
        "mermin.counts_by_position.s": stat("mermin.counts_by_position")[1],
        "generalized.conjecture_search.self_s": stat("generalized.conjecture_search")[2],
        "pool.workers": workers,
        "pool.child_cpu_s": child_cpu_s,
        "pool.efficiency":
            child_cpu_s / (scan_s * workers) if child_cpu_s and scan_s and workers else 0.0,
        "cli.self_s": stat("cli")[2],
        "setup.import_s": import_s,
        "trace.overhead_s": overhead_s,
    }


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ---- metrics and report ----------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "main_cmd_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "enumeration.run_search.self_s": "s",
    "enumeration.assignments_per_s": "1/s",
    "enumeration.kernel_macs": "MAC_computed",
    "enumeration.band_candidates": "count",
    "enumeration.band_useful_ratio": "ratio",
    "enumeration.full_space_scores.s": "s",
    "hidden_variables.exhaustive_search.self_s": "s",
    "hidden_variables.hv_value_direct.s": "s",
    "hidden_variables.hv_value_product_exact.s": "s",
    "cyclotomic.mul.calls": "count",
    "cyclotomic.mul.s": "s",
    "cyclotomic.times_root.calls": "count",
    "cyclotomic.times_root.s": "s",
    "cyclotomic.conjugate.calls": "count",
    "cyclotomic.reduce.calls": "count",
    "cyclotomic.compare.calls": "count",
    "cyclotomic.mp_fallback.calls": "count",
    "qudit_ops.apply_word.calls": "count",
    "qudit_ops.apply_word.s": "s",
    "mermin.verify_eigenvalue.self_s": "s",
    "mermin.build_mermin.s": "s",
    "mermin.expand_identity.s": "s",
    "mermin.counts_by_position.s": "s",
    "generalized.conjecture_search.self_s": "s",
    "pool.workers": "count",
    "pool.child_cpu_s": "s",
    "pool.efficiency": "ratio",
    "cli.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": openblas,
    }


def summarize(passes) -> dict:
    """Per-command medians, point-evaluation percentiles and the failure count."""
    labels = [op["label"] for op in passes[0]["ops"]]
    breakdown = {
        label: statistics.median([p["ops"][i]["seconds"] for p in passes])
        for i, label in enumerate(labels) if label.endswith("_s")
    }
    latencies = [x for p in passes for x in p["point_latencies_s"]]
    if latencies:
        breakdown["point_eval_p50_ms"] = _percentile(latencies, 50) * 1e3
        breakdown["point_eval_p95_ms"] = _percentile(latencies, 95) * 1e3
        breakdown["point_eval_samples"] = len(latencies)
    attempted = sum(len(p["ops"]) + p["point_attempted"] for p in passes)
    failed = sum(
        sum(bool(op["failures"]) for op in p["ops"]) + len(p["point_failures"]) for p in passes
    )
    breakdown["fail_frac"] = failed / attempted
    return {"breakdown": breakdown, "attempted": attempted, "failed": failed}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


# ---- entry point -------------------------------------------------------------------

def measured_run(qm, workload, commands, points, golden, seconds, setup) -> tuple[dict, dict]:
    passes = []
    start = _clock()
    while not passes or _clock() - start < seconds:
        passes.append(run_pass(qm, commands, points, golden))
    summary = summarize(passes)
    main_label = MAIN_COMMAND[workload]
    metrics = {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "main_cmd_s": summary["breakdown"][main_label],
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {"passes": passes, **summary}
    return report, metrics


def traced_run(qm, commands, points, golden, setup) -> tuple[dict, dict]:
    untraced = run_pass(qm, commands, points, golden)
    tracer = Tracer()
    uninstall = install(tracer, trace_targets(qm))
    cpu_before = _child_cpu_s()
    try:
        traced = run_pass(qm, commands, points, golden, tracer)
    finally:
        uninstall()
    child_cpu_s = _child_cpu_s() - cpu_before
    for plain, op in zip(untraced["ops"], traced["ops"]):
        if op["sha256"] != plain["sha256"]:
            op["failures"].append("payload differs from the untraced pass")
    passes = [untraced, traced]
    summary = summarize(passes)
    metrics = layer_metrics(
        tracer, child_cpu_s, setup["import_s"], traced["wall_s"] - untraced["wall_s"]
    )
    report = {"passes": passes, **summary, "spans": tracer.spans,
              "stats": {k: list(v) for k, v in tracer.stats.items()},
              "counts": dict(tracer.counts)}
    return report, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAIN_COMMAND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qudit_mermin" / "__init__.py").is_file():
        print(f"error: no qudit_mermin source under {SRC}", file=sys.stderr)
        return 2
    # Pinned before numpy is first imported, and inherited by every child.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.environ.pop("QUDIT_MERMIN_WORKERS", None)
    qm = load_package()
    golden = json.loads((HERE / "golden.json").read_text())["sha256"]
    commands, points = build_workload(args.workload, args.seed)
    setup = measure_setup()
    warm(qm)
    if args.trace:
        report, metrics = traced_run(qm, commands, points, golden, setup)
        units = PER_LAYER_UNITS
    else:
        report, metrics = measured_run(
            qm, args.workload, commands, points, golden, args.seconds, setup
        )
        units = END_TO_END_UNITS
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  setup=setup, machine=_machine(), metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1))
    brief = {k: v for k, v in report.items() if k not in ("passes", "spans", "stats")}
    print(json.dumps(brief))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
