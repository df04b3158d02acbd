"""Self-tests of the benchmark's correctness checks, at tiny sizes.

Each check is fed one corrupted answer and must count a failure; the
tiny runs must print every metric the benchmark defines, with its unit.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks
from perfbench.workloads import _Request, check_served, make_solver

ROOT = Path(__file__).resolve().parents[1]
PARAMS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: every metric the benchmark's definition names, end to end and per layer.
NAMED_END_TO_END = {
    "setup_s", "solve_s", "update_s", "solve_digits", "approx_digits", "peak_rss_mb",
    "serve_p50_ms.light", "serve_tail_ms.light", "serve_p50_ms.heavy",
    "serve_tail_ms.heavy", "serve_goodput_rps.heavy",
}
NAMED_PER_LAYER = {
    "tree.build_s", "sampling.s", "skeleton.s", "skeleton.kernel_evals", "skeleton.rank_sum",
    "kernels.summation_calls", "kernels.summation_s", "kernels.evals",
    "perf.cache_hit_rate", "perf.cache_misses", "perf.cache_peak_words",
    "solvers.factorize_s", "solvers.factorize_gflops", "solvers.factorize_roofline_frac",
    "solvers.solve_flops", "solvers.solve_gflops", "solvers.solve_roofline_frac",
    "solvers.reduced_matvec_calls", "solvers.reduced_matvec_s", "solvers.gmres_iters",
    "solvers.gmres_self_s", "solvers.gmres_converged_frac", "solvers.lu_solve_calls",
    "solvers.solve_subtree_calls", "solvers.solve_subtree_s",
    "core.update_lam_s", "core.update_insert_s", "core.refactored_frac", "core.incremental_frac",
    "parallel.worlds", "parallel.world_s", "parallel.messages", "parallel.bytes",
    "parallel.retries", "parallel.efficiency",
    "serve.solve_calls", "serve.batch_cols", "serve.solve_ms", "serve.submit_ms",
    "serve.wire_ms", "serve.conn_drops", "serve.shed",
}


def _params(name: str, **overrides) -> dict:
    p = {**PARAMS[name], **PARAMS[name]["tiny"]}
    p.update(overrides)
    return p


@pytest.fixture(scope="module")
def direct():
    p = _params("direct_update", n=512)
    solver = make_solver(p)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((p["n"], p["d"]))
    solver.fit(X)
    solver.factorize(p["lam"])
    return p, solver, X, rng


def test_residual_floor_counts_corrupted_answer(direct):
    p, solver, _, rng = direct
    u = rng.standard_normal(p["n"])
    w = solver.solve(u)
    op = lambda V: solver.regularized_matvec(p["lam"], V)  # noqa: E731
    good = checks.column_residuals(op, u, w)
    assert checks.residual_failures(good, p["solve_digits_floor"]) == 0
    assert checks.digits(good.max()) >= p["solve_digits_floor"]
    bad = w.copy()
    bad[0] += 1.0
    assert checks.residual_failures(checks.column_residuals(op, u, bad),
                                    p["solve_digits_floor"]) == 1
    assert checks.residual_failures([float("nan")], 8) == 1


def test_eps2_bound_counts_corrupted_matvec(direct):
    from perfbench.workloads import _exact_rows

    p, solver, X, rng = direct
    rows = np.arange(0, p["n"], 7)
    v = rng.standard_normal(p["n"])
    exact = _exact_rows(solver.kernel, X)
    eps2 = checks.approx_error(solver.matvec, exact, rows, v)
    assert checks.approx_failures(eps2, p["eps2_bound"]) == 0
    corrupted = checks.approx_error(lambda y: 1.5 * solver.matvec(y), exact, rows, v)
    assert checks.approx_failures(corrupted, p["eps2_bound"]) == 1


def test_gmres_check_counts_unconverged_columns_and_warnings():
    p = _params("hybrid_solve", n=1024, gmres={"tol": 1e-10, "max_iters": 3})
    solver = make_solver(p)
    rng = np.random.default_rng(0)
    solver.fit(rng.standard_normal((p["n"], p["d"])))
    solver.factorize(p["lam"])
    with pytest.warns(Warning, match="batched GMRES stopped"):
        solver.solve(rng.standard_normal((p["n"], p["k"])))
    histories = solver.factorization.reduced_histories
    assert checks.gmres_failures(histories, 1e-10) == p["k"]
    assert checks.gmres_failures(histories, 1e-10, n_warnings=1) == p["k"] + 1
    converged = [[1.0, 1e-11]] * p["k"]
    assert checks.gmres_failures(converged, 1e-10) == 0


def test_distributed_vs_serial_counts_corrupted_solution():
    from repro import kernel_by_name, parallel
    from repro.config import SkeletonConfig, SolverConfig, TreeConfig
    from repro.hmatrix import build_hmatrix
    from repro.solvers import factorize

    p = _params("dist_socket", n=512)
    rng = np.random.default_rng(0)
    h = build_hmatrix(
        rng.standard_normal((p["n"], p["d"])),
        kernel_by_name(p["kernel"], bandwidth=p["bandwidth"]),
        tree_config=TreeConfig(leaf_size=p["leaf_size"], seed=0),
        skeleton_config=SkeletonConfig(**p["skeleton"], seed=1),
    )
    u = rng.standard_normal(p["n"])
    dist = parallel.distributed_factorize(h, p["lam"], p["ranks"], backend="thread")
    w, _ = parallel.distributed_solve(dist, u)
    ref = factorize(h, p["lam"], SolverConfig(method=p["method"])).solve(u)
    assert checks.mismatch_failures(w, ref, p["match_rtol"]) == 0
    bad = w.copy()
    bad[-1] *= 1.0 + 1e-6
    assert checks.mismatch_failures(bad, ref, p["match_rtol"]) == 1


def test_served_answer_check_counts_corrupted_w(direct):
    p, solver, _, rng = direct
    rtol = PARAMS["serve_wire"]["match_rtol"]
    us = rng.standard_normal((4, p["n"]))
    requests = [_Request(0.0, b"", latency=0.01, w=solver.solve(u)) for u in us[:3]]
    requests.append(_Request(0.0, b""))  # never answered: not checked here
    assert check_served(requests, us, solver, rtol) == 0
    requests[1].w = requests[1].w + 1e-3
    assert check_served(requests, us, solver, rtol) == 1
    assert requests[1].latency == float("inf")  # a wrong answer is never fast


def test_cache_traffic_counts_only_inside_counted_spans(direct):
    from perfbench.tracing import SpanRecorder
    from repro.perf import default_cache

    p, solver, _, rng = direct
    cache = default_cache()
    assert solver.hmatrix.cache is cache
    v = rng.standard_normal(p["n"])
    solver.matvec(v)
    before = cache.stats().lookups
    solver.matvec(v)  # like a check: outside any measured span
    one_matvec = cache.stats().lookups - before
    assert one_matvec > 0
    rec = SpanRecorder("test")
    with rec.span("bench.solve", count=True):
        solver.matvec(v)
    solver.matvec(v)
    assert rec.cache["hits"] + rec.cache["misses"] == one_matvec
    assert rec.cache["peak_words"] >= cache.stats().words > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = checks.tail(list(range(1, 101)))
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert checks.tail([1.0] * 10)[0] is None
    value, _, _ = checks.tail([1.0] * 5 + [float("inf")] * 20)
    assert value == float("inf")  # failures count as slow


def _run(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_printed_with_its_unit(trace):
    printed: dict[str, str] = {}
    for name in PARAMS:
        result = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        for metric, entry in result["metrics"].items():
            assert entry["unit"], metric
            printed[metric] = entry["unit"]
    named = NAMED_PER_LAYER if trace == "1" else NAMED_END_TO_END
    assert named <= set(printed)
    key = "per_layer" if trace == "1" else "end_to_end"
    for m in BENCH[key]:
        assert printed[m["name"]] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hybrid_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120, env=env,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def _session_members(sid: int) -> list[int]:
    """Pids of every process (zombies too) in session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # ended while we looked
            continue
        if int(stat[stat.rfind(")") + 2:].split()[3]) == sid:
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_leaves_no_process_behind():
    # dist_socket spawns rank processes, and with them multiprocessing's
    # resource tracker; all of them must have ended when run.py exits.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "dist_socket",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=300) == 0
    assert _session_members(proc.pid) == []
