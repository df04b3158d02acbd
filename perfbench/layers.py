"""Per-layer metrics of a traced pass, from its spans and the pass's facts.

Roofline terms: flops, memory words and kernel evaluations are counted
by ``repro.util.flops.FlopCounter`` scopes opened around each counted
call; bytes are *computed* as 8 x counted words (no cache misses).  The
bound is ``min(peak, bandwidth x flops/byte)`` with peak and bandwidth
from ``repro.perfmodel.machine.probed_machine()`` in the same run.
"""

from __future__ import annotations

import numpy as np

from perfbench.tracing import layer_self, summarize


def _roofline(flops: float, words: float, seconds: float, machine):
    """(GFLOP/s, computed flop/byte, fraction of the roofline bound)."""
    if seconds <= 0 or flops <= 0:
        return 0.0, 0.0, 0.0
    gflops = flops / seconds / 1e9
    intensity = flops / (8.0 * words) if words > 0 else float("inf")
    bound = min(machine.peak_gflops, machine.stream_bw_gbs * intensity)
    return gflops, intensity if np.isfinite(intensity) else 0.0, gflops / bound


def offline_layers(spans, facts: dict, cache: dict, machine) -> dict:
    """Layer metrics of hybrid_solve, direct_update and dist_socket.

    ``cache`` is the block-cache traffic inside the measured operations
    (:attr:`perfbench.tracing.SpanRecorder.cache`).
    """
    fact = summarize(spans, "solvers.factorize", outermost=True)
    solve = summarize(spans, "solvers.solve", outermost=True)
    skel = summarize(spans, "skeleton.skeletonize", outermost=True)
    summ = summarize(spans, "kernels.summation")
    red = summarize(spans, "solvers.reduced_matvec")
    sub = summarize(spans, "solvers.solve_subtree", outermost=True)
    world = summarize(spans, "parallel.world")
    f_gflops, f_int, f_frac = _roofline(fact["flops"], fact["mops"], fact["dur"], machine)
    s_gflops, s_int, s_frac = _roofline(solve["flops"], solve["mops"], solve["dur"], machine)
    updates = facts.get("updates", [])
    comm = facts.get("comm", {})
    columns = facts.get("gmres_columns", 0)
    lookups = cache["hits"] + cache["misses"]
    return {
        "tree.build_s": layer_self(spans, "tree"),
        "sampling.s": layer_self(spans, "sampling"),
        "skeleton.s": layer_self(spans, "skeleton"),
        "skeleton.kernel_evals": skel["kernel_evals"],
        "skeleton.rank_sum": facts["rank_sum"],
        "kernels.summation_calls": summ["calls"],
        "kernels.summation_s": summ["self"],
        "kernels.evals": sum(
            summarize(spans, f"bench.{op}")["kernel_evals"]
            for op in ("setup", "update_lam", "update_insert", "solve")
        ),
        "perf.cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "perf.cache_misses": cache["misses"],
        "perf.cache_peak_words": cache["peak_words"],
        "solvers.factorize_s": fact["dur"],
        "solvers.factorize_gflops": f_gflops,
        "solvers.factorize_intensity_computed": f_int,
        "solvers.factorize_roofline_frac": f_frac,
        "solvers.solve_flops": solve["flops"] / solve["calls"] if solve["calls"] else 0.0,
        "solvers.solve_gflops": s_gflops,
        "solvers.solve_intensity_computed": s_int,
        "solvers.solve_roofline_frac": s_frac,
        "solvers.reduced_matvec_calls": red["calls"],
        "solvers.reduced_matvec_s": red["dur"],
        "solvers.gmres_iters": facts.get("gmres_iters", 0),
        "solvers.gmres_self_s": summarize(spans, "solvers.gmres")["self"],
        "solvers.gmres_converged_frac": (
            facts["gmres_converged"] / columns if columns else 1.0
        ),
        "solvers.lu_solve_calls": summarize(spans, "solvers.lu_solve")["calls"],
        "solvers.solve_subtree_calls": sub["calls"],
        "solvers.solve_subtree_s": sub["dur"],
        "core.update_lam_s": summarize(spans, "bench.update_lam")["dur"],
        "core.update_insert_s": summarize(spans, "bench.update_insert")["dur"],
        "core.refactored_frac": (
            sum(u[0] for u in updates) / sum(u[1] for u in updates) if updates else 0.0
        ),
        "core.incremental_frac": (
            sum(1 for u in updates if not u[2]) / len(updates) if updates else 0.0
        ),
        "parallel.worlds": world["calls"],
        "parallel.world_s": world["dur"],
        "parallel.messages": comm.get("messages", 0),
        "parallel.bytes": comm.get("bytes", 0),
        "parallel.retries": comm.get("retries", 0),
        "parallel.efficiency": facts.get("efficiency", 0.0),
    }


def serve_layers(spans, facts: dict, p50_ms: float) -> dict:
    """Layer metrics of serve_wire, from the daemon's spans and the client."""
    solve_ms = spans["dur"][spans["name"] == "core.solve"] * 1e3
    submit_ms = spans["dur"][spans["name"] == "serve.submit"] * 1e3
    coalescer = facts["coalescer"]
    submit_p50 = float(np.median(submit_ms)) if submit_ms.size else None
    return {
        "serve.solve_calls": int(solve_ms.size),
        "serve.batch_cols": (
            coalescer["requests"] / coalescer["batches"] if coalescer["batches"] else 0.0
        ),
        "serve.solve_ms": float(np.median(solve_ms)) if solve_ms.size else None,
        "serve.submit_ms": submit_p50,
        "serve.wire_ms": (
            p50_ms - submit_p50
            if submit_p50 is not None and np.isfinite(p50_ms)
            else None
        ),
        "serve.conn_drops": facts["conn_drops"],
        "serve.shed": facts["shed"],
    }
