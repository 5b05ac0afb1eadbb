"""End-to-end benchmark of the reproduction, with per-layer tracing.

Run from the repository root::

    python3 e2ebench/run.py --workload e11-deep --seed 0 --seconds 20 --trace 0
    python3 e2ebench/run.py --seed 0                 # every workload, once each
    python3 e2ebench/run.py --seed 0 --trace 1       # per-layer metrics
    python3 e2ebench/run.py --workload e11-deep --sets 10   # spread over 10 seeds

``BENCHMARK.json`` at the repository root declares the workloads, the
metrics with their units and regression bounds, and the default run
length.  A single-workload run prints one line per metric and, as its last
line, a JSON object ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  It exits 0 only when every unit passed and matched the
reference outputs.  ``--workload all`` and ``--sets N`` run each
(workload, seed) in its own fresh interpreter and summarise them.

See README.md in this directory for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(HERE, ".work")
OUT_DIR = os.path.join(HERE, "out")
#: A run may take this long before an orchestrating parent gives up on it.
RUN_TIMEOUT_S = 900


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def hermetic_env(workdir: str) -> Dict[str, str]:
    """The caller's environment without any ``REPRO_*`` setting.

    An ambient ``REPRO_CACHE_DIR`` alone would make ``suite-serial`` an
    order of magnitude slower; every run starts from the same settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = workdir
    return env


def run_one(spec: Dict[str, Any], name: str, seed: int, seconds: float, trace: bool):
    """One run of one workload in this process; returns the result object."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    env = hermetic_env(workdir)
    os.environ.clear()
    os.environ.update(env)
    tempfile.tempdir = workdir
    sys.path.insert(0, SRC)

    import layers
    import workloads

    workloads.become_subreaper()
    workload = None
    try:
        workload = workloads.make(name, root=ROOT, workdir=workdir, env=env, seed=seed)
        if trace:
            spool = os.path.join(workdir, "spans")
            os.makedirs(spool)
            recorder = layers.Recorder(spool)
            units, metrics, rows = workloads.measure_layers(workload, seconds, recorder)
            broken = layers.negative_self_times(rows)
            os.makedirs(OUT_DIR, exist_ok=True)
            with open(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json"), "w") as handle:
                json.dump({"workload": name, "seed": seed, "metrics": metrics, "rows": rows}, handle)
        else:
            units, metrics = workloads.measure(workload, seconds)
            broken = []
        reference = workload.reference()
    finally:
        if workload is not None:
            workload.teardown()
        workloads.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} "
            "are computed or declared but not both"
        )
    failed = workloads.count_failed(units, reference)
    return {
        "correct": failed == 0 and not broken,
        "attempted": len(units),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def exit_code(result: Dict[str, Any]) -> int:
    return 0 if result["correct"] and result["failed"] == 0 else 1


def print_result(name: str, seed: int, result: Dict[str, Any]) -> None:
    print(
        f"{name} seed={seed}: {result['attempted']} units, {result['failed']} failed, "
        f"correct={result['correct']}"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<42} {entry['value']:>14.6g} {entry['unit']}")


# -- orchestration: one fresh interpreter per (workload, seed) ----------------------------


def run_child(name: str, seed: int, seconds: float, trace: bool) -> Optional[Dict[str, Any]]:
    """One single-workload run in a fresh interpreter (it makes itself
    hermetic before importing the program); its result object or None."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"{name} seed={seed}: timed out after {RUN_TIMEOUT_S}s", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{name} seed={seed}: no result (exit {process.returncode})", file=sys.stderr)
        return None


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise_sets(spec: Dict[str, Any], trace: bool, results: Dict[str, List[Dict[str, Any]]]):
    """Median and quartiles of every metric across sets; a spread wider
    than the metric's bound is flagged unresolved."""
    declared = spec["per_layer" if trace else "end_to_end"]
    summary: Dict[str, Dict[str, Any]] = {}
    for name, runs in results.items():
        print(f"{name}: {len(runs)} sets")
        rows = summary[name] = {}
        for metric in declared:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            bound = metric.get("bound")
            unresolved = bound is not None and spread > bound
            rows[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "unresolved": unresolved,
            }
            flag = "  UNRESOLVED" if unresolved else ""
            bound_text = f" (bound {bound:.0%})" if bound is not None else ""
            print(
                f"  {metric['name']:<42} median {median:.6g} {metric['unit']}  "
                f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.1%}{bound_text}{flag}"
            )
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(SPEC_PATH):
        print(f"e2ebench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="End-to-end benchmark with per-layer tracing.")
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run printing the per-layer metrics")
    parser.add_argument("--sets", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+N-1; prints quartiles")
    args = parser.parse_args(argv)
    if args.sets < 1 or args.seconds <= 0:
        parser.error("--sets and --seconds must be positive")

    if args.workload != "all" and args.sets == 1:
        result = run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(args.workload, args.seed, result)
        print(json.dumps(result))
        return exit_code(result)

    selected = names if args.workload == "all" else [args.workload]
    results: Dict[str, List[Dict[str, Any]]] = {}
    status = 0
    for name in selected:
        for seed in range(args.seed, args.seed + args.sets):
            result = run_child(name, seed, args.seconds, bool(args.trace))
            if result is None:
                status = 1
                continue
            print_result(name, seed, result)
            status = max(status, exit_code(result))
            results.setdefault(name, []).append(result)
    summary = summarise_sets(spec, bool(args.trace), results) if args.sets > 1 else results
    print(json.dumps({"ok": status == 0, "workloads": summary}))
    return status


if __name__ == "__main__":
    sys.exit(main())
