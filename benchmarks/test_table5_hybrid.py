"""Table V: hybrid vs direct methods with level restriction L = 3.

Paper (#19-#27): SUSY, MRI, MNIST with adaptive ranks (tau = 1e-5,
smax = 2048).  The hybrid factorization is ~2x cheaper to build than
the level-restricted direct factorization; its solves are ~20x slower
(needing ~30-100 GMRES iterations to residual ~1e-3-1e-4 instead of a
direct apply at ~1e-10+); yet total Tf + Ts favors the hybrid.

Reproduction: stand-ins at N = 2048, L = 3, tau = 1e-5, smax = 256.
"""

import time
import warnings

import numpy as np
import pytest

from conftest import emit, fmt_row
from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.datasets import load_dataset
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.solvers import factorize
from repro.util.flops import FlopCounter

N = 2048
LEVEL = 3

#: (paper #s, dataset, bandwidth, lambda) — h scaled for the stand-ins.
CASES = [
    ("19-21", "susy", 1.0, 1.0),
    ("22-24", "mri", 2.0, 10.0),
    ("25-27", "mnist2m", 2.0, 1.0),
]

_rows = []


def _build(name, h):
    ds = load_dataset(name, N, seed=0)
    t0 = time.perf_counter()
    hmat = build_hmatrix(
        ds.X_train,
        GaussianKernel(bandwidth=h),
        tree_config=TreeConfig(leaf_size=128, seed=1),
        skeleton_config=SkeletonConfig(
            tau=1e-5, max_rank=256, num_samples=384, num_neighbors=16, seed=2,
            level_restriction=LEVEL,
        ),
    )
    return hmat, time.perf_counter() - t0


@pytest.mark.parametrize("case", CASES, ids=lambda c: c[1])
def test_table5_case(benchmark, case):
    nums, name, h, lam = case
    hmat, t_askit = _build(name, h)
    u = np.random.default_rng(0).standard_normal(N)

    for method, gmres_cfg in (
        ("direct", None),
        ("hybrid", GMRESConfig(tol=1e-4, max_iters=300)),
    ):
        cfg = SolverConfig(
            method=method,
            check_stability=False,
            **({"gmres": gmres_cfg} if gmres_cfg else {}),
        )
        with FlopCounter() as fc_f:
            t0 = time.perf_counter()
            fact = factorize(hmat, lam, cfg)
            tf = time.perf_counter() - t0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with FlopCounter() as fc_s:
                t0 = time.perf_counter()
                w = fact.solve(u)
                ts = time.perf_counter() - t0
        res = fact.residual(u, w)
        ksp = sum(fact.reduced_iterations) if method == "hybrid" else 0
        _rows.append(
            (nums, name, method, t_askit, tf, fc_f.flops / 1e9, ts,
             fc_s.flops / 1e9, res, ksp, fact.reduced_operator)
        )

    direct_row = _rows[-2]
    hybrid_row = _rows[-1]
    # the hybrid factorization skips the big reduced LU: strictly cheaper.
    assert hybrid_row[5] < direct_row[5]
    # its solve is iterative: strictly more expensive, looser residual.
    assert hybrid_row[7] > direct_row[7]
    assert direct_row[8] < 1e-9
    assert hybrid_row[8] < 1e-2

    fact = factorize(hmat, lam, SolverConfig(check_stability=False))
    benchmark.pedantic(lambda: fact.solve(u), rounds=3, iterations=1)


def test_table5_emit(benchmark):
    benchmark(lambda: None)
    if not _rows:
        pytest.skip("run the per-dataset benchmarks first")
    widths = [7, 9, 7, 7, 7, 8, 9, 8, 9, 5, 11]
    lines = [
        f"TABLE V -- hybrid vs direct, level restriction L={LEVEL}, "
        f"tau=1e-5, smax=256, N={N}",
        "",
        fmt_row(
            ["#", "dataset", "method", "ASKIT", "Tf(s)", "GF-f", "Ts(s)",
             "GF-s", "resid", "KSP", "Z"],
            widths,
        ),
    ]
    for nums, name, method, ta, tf, gf, ts, gs, res, ksp, op in _rows:
        lines.append(
            fmt_row(
                [nums, name, method, f"{ta:.1f}", f"{tf:.2f}", f"{gf:.1f}",
                 f"{ts:.3f}", f"{gs:.2f}", f"{res:.0e}", ksp or "-", op],
                widths,
            )
        )
    lines += [
        "",
        "Z: how the solve applied the frontier system -- LU (direct) or,",
        "for the hybrid, matrix-free until the columns applied cost one",
        "assembly of Z (docs/PERFORMANCE.md, 'Assembled reduced operator').",
        "paper shape: hybrid Tf ~ 1/2 direct Tf; hybrid Ts ~ 20x direct Ts",
        "with 27-98 GMRES iterations to r ~ 1e-3/1e-4 (direct: r ~ 1e-10+);",
        "at larger L the direct method becomes infeasible (memory for Z",
        "alone: 2^L * smax squared) while the hybrid still runs — see the",
        "level-restriction ablation bench.",
    ]
    emit("table5_hybrid", lines)
