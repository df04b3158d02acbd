"""Table IV: single-node performance and the three solve schemes.

Paper (#11-#16): COVTYPE100K, m = s = 2048 (fixed rank), L = 3.
Reports factorization time/GFLOPS and three solve variants with
different storage: GEMV on stored V (fast, O(sN log N) memory), GEMM
re-evaluation (slowest), GSKS fused (matrix-free, within 1.2-1.6x of
GEMV and 4-7x faster than GEMM).

Reproduction: COVTYPE stand-in at N = 4096, m = s = 256, L = 3.  Wall
seconds are reported for completeness, but numpy's interpreter overhead
distorts the GEMV-vs-fused ratio (the paper's ratio comes from
assembly micro-kernels), so the shape comparison uses *modeled node
times* computed from the counted FLOPs/MOPs through the Haswell
roofline — the same accounting the paper's analysis uses.  Storage is
split out for the V blocks, which are what the matrix-free scheme
eliminates (the factors P^, Z are common to all three schemes).
"""

import time

import numpy as np

from conftest import emit, fmt_row
from repro.config import SkeletonConfig, SolverConfig, TreeConfig
from repro.datasets import load_dataset
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.perfmodel import HASWELL_NODE, KNL_NODE
from repro.solvers import factorize
from repro.util.flops import FlopCounter

N = 4096
RANK = 256
LEVEL = 3

SCHEME_LABEL = {
    "precomputed": "GEMV (store V)",
    "reevaluate": "GEMM (re-evaluate)",
    "fused": "GSKS (matrix-free)",
}


def _build(summation):
    ds = load_dataset("covtype", N, seed=0)
    return build_hmatrix(
        ds.X_train,
        GaussianKernel(bandwidth=1.0),
        tree_config=TreeConfig(leaf_size=RANK, seed=1),
        skeleton_config=SkeletonConfig(
            rank=RANK, num_samples=384, num_neighbors=16, seed=2,
            level_restriction=LEVEL,
        ),
        summation=summation,
    )


def _modeled_seconds(machine, scheme: str, flops: int, mops: int, evals: int) -> float:
    """Scheme-specific node-time model (mirrors the Table I models).

    * GEMV on stored blocks: bandwidth-vs-GEMM roofline.
    * GEMM re-evaluate: the phases serialize (evaluate with vendor GEMM,
      exponentiate with VML streaming the block, then GEMV) — the
      paper's "best-known method".
    * GSKS: one fused pass at the fused-kernel rate, tiny traffic.
    """
    bw = machine.stream_bw_gbs * 1e9
    if scheme == "precomputed":
        return max(flops / (machine.gemm_gflops * 1e9), mops * 8.0 / bw)
    if scheme == "reevaluate":
        return (
            flops / (machine.gemm_gflops * 1e9)
            + evals / (machine.exp_gelems * 1e9)
            + mops * 8.0 / bw
        )
    return max(flops / (machine.fused_gflops * 1e9), mops * 8.0 / bw)


def test_table4_single_node(benchmark):
    u = np.random.default_rng(0).standard_normal(N)
    rows = []
    factor_stats = None
    bench_fact = None
    for scheme in ("precomputed", "reevaluate", "fused"):
        hmat = _build(scheme)
        cfg = SolverConfig(method="direct", summation=scheme, check_stability=False)
        with FlopCounter() as fc_f:
            t0 = time.perf_counter()
            fact = factorize(hmat, 1.0, cfg)
            tf = time.perf_counter() - t0
        fact.solve(u)  # warm caches
        with FlopCounter() as fc_s:
            t0 = time.perf_counter()
            w = fact.solve(u)
            ts = time.perf_counter() - t0
        res = fact.residual(u, w)
        modeled = _modeled_seconds(
            HASWELL_NODE, scheme, fc_s.flops, fc_s.mops, fc_s.kernel_evals
        )
        rows.append((scheme, ts, fc_s.flops, fc_s.mops, modeled, fact.vblock_words(), res))
        if scheme == "precomputed":
            factor_stats = (tf, fc_f.flops)
            bench_fact = fact

    tf, ff = factor_stats
    widths = [20, 10, 8, 8, 13, 12, 9]
    lines = [
        f"TABLE IV -- single node, COVTYPE stand-in N={N}, m=s={RANK}, L={LEVEL}",
        "",
        f"factorization: Tf={tf:.2f}s wall, counted={ff / 1e9:.1f} GFLOP",
        f"  modeled node Tf: Haswell {ff / (0.62 * HASWELL_NODE.peak_gflops * 1e9) * 1e3:.1f}ms"
        f" (62% peak, paper #11), KNL {ff / (0.45 * KNL_NODE.peak_gflops * 1e9) * 1e3:.1f}ms"
        " (45% peak, paper #13)",
        "",
        "solve phase (one RHS) under the three kernel-summation schemes:",
        fmt_row(
            ["scheme", "Ts wall", "GFLOP", "Mwords", "Ts modeled", "V storage",
             "residual"],
            widths,
        ),
    ]
    for scheme, ts, fs, ms, modeled, vwords, res in rows:
        lines.append(
            fmt_row(
                [
                    SCHEME_LABEL[scheme], f"{ts * 1e3:.1f}ms", f"{fs / 1e9:.2f}",
                    f"{ms / 1e6:.1f}", f"{modeled * 1e3:.2f}ms",
                    f"{vwords / 1e6:.2f}Mw", f"{res:.0e}",
                ],
                widths,
            )
        )
    m_gemv, m_gemm, m_gsks = rows[0][4], rows[1][4], rows[2][4]
    v_gemv, v_gsks = rows[0][5], rows[2][5]
    lines += [
        "",
        "shape checks vs paper (modeled node times, Haswell roofline):",
        f"  GSKS/GEMV = {m_gsks / m_gemv:.2f}x   (paper: 1.2-1.6x slower)",
        f"  GEMM/GSKS = {m_gemm / m_gsks:.2f}x   (paper: 4-7x slower)",
        f"  V-block storage: GEMV {v_gemv / 1e6:.2f}Mw, GSKS {v_gsks} words"
        "   (paper: O(sN log N) -> O(1))",
        "",
        "wall-clock caveat: in numpy the fused path pays interpreter-level",
        "re-evaluation costs the paper's AVX micro-kernels do not; the",
        "modeled columns carry the architectural comparison.",
    ]
    emit("table4_single_node", lines)

    # paper shape assertions.
    assert v_gsks < v_gemv / 50  # matrix-free eliminates V storage
    assert m_gsks < 3.0 * m_gemv  # fused within a small factor of GEMV
    assert m_gemm > 1.5 * m_gsks  # re-evaluate is the slowest scheme

    benchmark.pedantic(lambda: bench_fact.solve(u), rounds=3, iterations=1)
