"""Figure 5 (#28-#39): convergence solving lambda*I + K~.

Paper: four dataset/bandwidth rows x three columns with
lambda = [1e-2, 1e-3, 1e-5] * sigma_1(K~) (condition numbers ~1e2,
1e3, 1e5).  Compares (a) unpreconditioned GMRES using ASKIT's fast
matvec (blue) against (b) the hybrid method (orange).  Findings: the
hybrid converges steadily and is 10-1000x faster on the solve; plain
GMRES goes flat at kappa ~ 1e5; in the narrow-bandwidth #30 case the
solver *detects* the ill-conditioning of D and both methods fail.

Reproduction: stand-ins at N = 2048 with level restriction (paper used
L = 5/7 at millions of points; L = 2 gives the same frontier-to-depth
proportions here).  The x-axis (seconds in the paper) is Krylov
iterations; residual checkpoints reproduce the curve shapes.
"""

import warnings

import numpy as np
import pytest

from conftest import emit, fmt_row
from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.datasets import load_dataset
from repro.exceptions import StabilityWarning
from repro.hmatrix import build_hmatrix, estimate_largest_singular_value
from repro.kernels import GaussianKernel
from repro.solvers import factorize, gmres

N = 2048
LEVEL = 2
MAX_ITERS = 80
CHECKPOINTS = [5, 10, 20, 40, 80]

#: (paper #s, dataset, bandwidth); the last row is the narrow-bandwidth
#: regime of #28-#30 (small h for the normalized stand-in).
ROWS = [
    ("31-33", "susy", 1.0),
    ("34-36", "higgs", 1.5),
    ("37-39", "mnist2m", 2.0),
    ("28-30", "covtype", 0.35),
]

KAPPAS = [(1e-2, "1e+2"), (1e-3, "1e+3"), (1e-5, "1e+5")]

_lines: list[str] = []
_summary: list[tuple] = []


def _checkpoint_series(residuals: list[float]) -> str:
    out = []
    for c in CHECKPOINTS:
        if c < len(residuals):
            out.append(f"{residuals[c]:.0e}")
        else:
            out.append(f"{residuals[-1]:.0e}*")
    return " ".join(x.rjust(7) for x in out)


@pytest.mark.parametrize("row", ROWS, ids=lambda r: f"#{r[0]}-{r[1]}")
def test_fig5_row(benchmark, row):
    nums, name, h = row
    ds = load_dataset(name, N, seed=0)
    hmat = build_hmatrix(
        ds.X_train,
        GaussianKernel(bandwidth=h),
        tree_config=TreeConfig(leaf_size=128, seed=1),
        skeleton_config=SkeletonConfig(
            tau=1e-5, max_rank=128, num_samples=256, num_neighbors=16, seed=2,
            level_restriction=LEVEL,
        ),
    )
    sigma1 = estimate_largest_singular_value(hmat, n_iters=15, seed=0)
    u = np.random.default_rng(1).standard_normal(N)

    _lines.append(f"-- {nums}: {name} stand-in, h={h}, sigma1(K~)={sigma1:.1f}")
    header = "   " + "kappa".ljust(7) + "method".ljust(9) + "  " + " ".join(
        f"it={c}".rjust(7) for c in CHECKPOINTS
    ) + "   final-resid  Z            detect"
    _lines.append(header)

    for frac, kappa_label in KAPPAS:
        lam = frac * sigma1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plain = gmres(
                lambda v: hmat.regularized_matvec(lam, v),
                u,
                GMRESConfig(tol=1e-10, max_iters=MAX_ITERS),
            )
            fact = factorize(
                hmat,
                lam,
                SolverConfig(
                    method="hybrid",
                    gmres=GMRESConfig(tol=1e-10, max_iters=MAX_ITERS),
                ),
            )
            w = fact.solve(u)
        detected = any(issubclass(c.category, StabilityWarning) for c in caught)
        hybrid_hist = fact.reduced_histories[-1]
        hybrid_res = fact.residual(u, w)
        _lines.append(
            "   " + kappa_label.ljust(7) + "GMRES".ljust(9) + "  "
            + _checkpoint_series(plain.residuals)
            + f"   {plain.final_residual:.1e}"
        )
        _lines.append(
            "   " + kappa_label.ljust(7) + "hybrid".ljust(9) + "  "
            + _checkpoint_series(hybrid_hist)
            + f"   {hybrid_res:.1e}"
            + f"      {fact.reduced_operator:<12}"
            + (" D ill-cond" if detected else "")
        )
        _summary.append(
            (nums, name, kappa_label, plain.final_residual, hybrid_res, detected)
        )
    _lines.append("")

    # paper shape per row: at kappa=1e2 the hybrid reaches a much
    # smaller residual than plain GMRES within the same iteration budget.
    easy = [s for s in _summary if s[0] == nums and s[2] == "1e+2"][0]
    assert easy[4] < easy[3] * 1e-2 or easy[4] < 1e-9

    benchmark.pedantic(
        lambda: gmres(
            lambda v: hmat.regularized_matvec(sigma1 * 1e-2, v),
            u,
            GMRESConfig(tol=1e-10, max_iters=10),
        ),
        rounds=1,
        iterations=1,
    )


def test_fig5_emit(benchmark):
    benchmark(lambda: None)
    if not _summary:
        pytest.skip("run the per-row benchmarks first")
    hard = [s for s in _summary if s[2] == "1e+5"]
    stalled = sum(1 for s in hard if s[3] > 1e-4)
    lines = [
        f"FIGURE 5 (#28-#39) -- convergence solving lambda*I + K~ (N={N}, "
        f"L={LEVEL}, tau=1e-5)",
        "residual checkpoints vs Krylov iteration (x-axis; '*' = converged/",
        "stopped earlier).  GMRES = unpreconditioned with ASKIT matvec",
        "(paper blue); hybrid = Algorithm II.6 (paper orange).  Z: the",
        "hybrid's reduced operator after its solve, matrix-free or assembled",
        "once the columns applied cost one assembly (docs/PERFORMANCE.md).",
        "",
        *_lines,
        "paper shape: hybrid curves drop steeply at every kappa; plain",
        f"GMRES flattens near kappa ~ 1e5 ({stalled}/{len(hard)} hard cases"
        " stalled above 1e-4 here).  The row where BOTH methods stall at",
        "kappa=1e5 is the paper's #30 regime; the 'detect' column reports",
        "the D-ill-conditioning detector (it fires when a diagonal block",
        "passes rcond 1e-12 — exercised directly in tests/test_stability.py).",
    ]
    emit("fig5_convergence", lines)
