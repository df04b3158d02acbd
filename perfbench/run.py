#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload hybrid_solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the workload twice, each with half the time and one
set-up: once untraced, once with span wrappers around each layer's
public callables.  It reports the per-layer metrics of the traced pass
and the tracing overhead (traced minus untraced).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  Metric names
and units come from ``BENCHMARK.json`` for the workloads listed there,
and from ``perfbench/workloads.json`` for ``serve_wire``.  Workload
parameters and the reason for each workload are in
``perfbench/workloads.json``; see ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy loads; spawned ranks and the serve
# daemon inherit it, so no workload runs more compute threads than cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402

import repro  # noqa: E402,F401  (fails fast when the program is absent)

from perfbench import layers  # noqa: E402
from perfbench.environment import environment  # noqa: E402
from perfbench.tracing import SpanRecorder, load_arrays  # noqa: E402
from perfbench.workloads import OUT, WORKLOADS  # noqa: E402

PARAMS = json.loads((Path(__file__).with_name("workloads.json")).read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_spec(name: str, trace: bool) -> list[tuple[str, str]]:
    """(metric, unit) pairs a run of this workload prints."""
    if name in {w["name"] for w in BENCH["workloads"]}:
        key = "per_layer" if trace else "end_to_end"
        return [(m["name"], m["unit"]) for m in BENCH[key]]
    key = "layer_metrics" if trace else "metrics"
    return [tuple(m) for m in PARAMS[name][key]]


def params_for(name: str, tiny: bool) -> dict:
    p = {k: v for k, v in PARAMS[name].items() if k not in ("tiny", "metrics", "layer_metrics")}
    if tiny:
        p.update(PARAMS[name]["tiny"])
    return p


def _traced(name: str, p: dict, seed: int, seconds: float):
    """Untraced pass, then traced pass; per-layer values and both passes."""
    from repro.perfmodel.machine import probed_machine

    fn = WORKLOADS[name]
    base = fn(p, seed, seconds / 2, 1)
    rec = SpanRecorder(f"{name}-{seed}-{os.getpid()}")
    rec.install()
    try:
        traced = fn(p, seed, seconds / 2, 1, rec)
    finally:
        rec.uninstall()
    OUT.mkdir(exist_ok=True)
    rec.dump(OUT / f"spans-{name}-{seed}.json")
    values = {"trace.setup_overhead_s": traced.metrics["setup_s"] - base.metrics["setup_s"]}
    if name == "serve_wire":
        p50 = traced.metrics["serve_p50_ms.light"]
        values.update(layers.serve_layers(
            load_arrays(traced.facts["daemon_spans"]), traced.facts, p50))
        values["trace.p50_overhead_ms"] = p50 - base.metrics["serve_p50_ms.light"]
    else:
        values.update(layers.offline_layers(rec.arrays(), traced.facts, rec.cache,
                                            probed_machine()))
        values["trace.solve_overhead_s"] = traced.metrics["solve_s"] - base.metrics["solve_s"]
    return values, [base, traced]


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """One workload: (result object, failed-check messages, details)."""
    p = params_for(name, tiny)
    if trace:
        values, passes = _traced(name, p, seed, seconds)
    else:
        passes = [WORKLOADS[name](p, seed, seconds, p["setup_repeats"])]
        values = passes[0].metrics
    metrics = {}
    for metric, unit in metric_spec(name, trace):
        value = values[metric]
        entry = {"value": value if value is not None and math.isfinite(value) else None,
                 "unit": unit}
        if metric.startswith("serve_tail_ms."):  # with its percentile and sample count
            entry.update(passes[-1].facts["tail." + metric.split(".", 1)[1]])
        metrics[metric] = entry
    failed = sum(ps.failed for ps in passes)
    details = {k: v for k, v in passes[-1].facts.items()
               if isinstance(v, (int, float, str, dict, list))}
    return {
        "correct": failed == 0,
        "attempted": sum(ps.attempted for ps in passes),
        "failed": failed,
        "metrics": metrics,
    }, [prob for ps in passes for prob in ps.problems], details


def stop_children(grace_s: float = 10.0) -> None:
    """End every process the run started and wait until each has ended.

    The socket vMPI backend spawns its ranks with ``multiprocessing``,
    and the first spawn also starts multiprocessing's resource-tracker
    process, which would otherwise outlive this one.  The tracker stops
    at end of file on its pipe once no live process holds the pipe, so
    the ranks are reaped first.
    """
    for proc in multiprocessing.active_children():
        proc.join(grace_s)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is None:
            return
        os.close(tracker._fd)
        tracker._fd = None
        pid, tracker._pid = tracker._pid, None
    deadline = time.monotonic() + grace_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:  # already reaped
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes from workloads.json (the self-tests use them)")
    args = parser.parse_args(argv)

    try:
        return _run(args)
    finally:
        stop_children()


def _run(args) -> int:
    env = environment(args.seed)
    print("environment " + json.dumps(env), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, problems, details = run_one(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        results[name] = result
        for prob in problems:
            print(f"{name}: FAILED {prob}", flush=True)
        print(f"{name} details " + json.dumps(details), flush=True)
        OUT.mkdir(exist_ok=True)
        record = {"workload": name, "trace": args.trace, "environment": env,
                  **result, "problems": problems, "details": details}
        (OUT / f"result-{name}-{args.seed}-{args.trace}.json").write_text(json.dumps(record))
        if len(names) > 1:
            print(f"{name} " + json.dumps(result), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
