"""Distributed factorization on the virtual MPI runtime (Algorithms II.4/II.5).

Runs DistFactorize/DistSolve over p = 1..8 virtual ranks (threads with
an explicit message fabric), checks every result against the serial
solver, and reports the communication profile — whose growth the paper
bounds by O(s^2 log^2 p) for the factorization and O(s log^2 p) per
solve.  It ends with a lambda sweep over the same H-matrix: K~ does not
depend on lambda, so each refit runs on the ranks that already hold it.

Run:  python examples/distributed_solve.py
      REPRO_VMPI_BACKEND=socket python examples/distributed_solve.py
"""

import time

import numpy as np

from repro import GaussianKernel
from repro.config import SkeletonConfig, TreeConfig
from repro.datasets import normal_embedded
from repro.hmatrix import HMatrix
from repro.parallel import (
    distributed_factorize,
    distributed_skeletonize,
    distributed_solve,
)
from repro.solvers import factorize
from repro.tree import BallTree


def main() -> None:
    n = 4096
    print(f"NORMAL dataset, N={n}; Gaussian kernel, lambda=1.0")
    X = normal_embedded(n, ambient_dim=64, intrinsic_dim=6, seed=1)
    kernel = GaussianKernel(bandwidth=4.0)
    tree = BallTree(X, TreeConfig(leaf_size=128, seed=2))
    skel_cfg = SkeletonConfig(
        tau=1e-6, max_rank=96, num_samples=256, num_neighbors=16, seed=3
    )

    # the construction phase itself runs under virtual MPI (and is
    # bit-identical to the serial build thanks to per-node seeding).
    sset, sk_stats = distributed_skeletonize(tree, kernel, skel_cfg, n_ranks=4)
    print(
        f"distributed skeletonization on 4 ranks: {sk_stats.messages} msgs, "
        f"{sk_stats.bytes / 1e3:.1f} KB"
    )
    hmat = HMatrix(tree, kernel, sset)
    u = np.random.default_rng(0).standard_normal(n)
    w_serial = factorize(hmat, 1.0).solve(u)
    print("serial solve done; now the distributed runs:")
    print("  p   factor-msgs  factor-MB  solve-msgs  solve-KB  max|w - w_serial|")

    for p in (1, 2, 4, 8):
        dist = distributed_factorize(hmat, 1.0, p)
        w, solve_stats = distributed_solve(dist, u)
        err = np.abs(w - w_serial).max()
        fs = dist.factor_stats
        print(
            f"  {p:<3} {fs.messages:<12} {fs.bytes / 1e6:<10.2f} "
            f"{solve_stats.messages:<11} {solve_stats.bytes / 1e3:<9.1f} {err:.2e}"
        )

    print(
        "\nmessage counts grow ~log^2 p per the paper's communication model;"
        "\nresults are identical to the serial factorization to roundoff."
    )

    # a refit over the same H-matrix takes the latest handle's ranks over:
    # only lambda and the config cross, and no new world is launched.
    print(f"\nlambda sweep on the same {p} ranks:")
    print("  lambda  refit-s  max|w - w_serial|")
    for lam in (0.1, 10.0, 1.0):
        t0 = time.perf_counter()
        dist = distributed_factorize(hmat, lam, p)
        refit_s = time.perf_counter() - t0
        w, _ = distributed_solve(dist, u)
        err = np.abs(w - factorize(hmat, lam).solve(u)).max()
        print(f"  {lam:<7} {refit_s:<8.3f} {err:.2e}")


if __name__ == "__main__":
    main()
