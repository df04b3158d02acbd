"""Cross-cutting edge cases: odd geometries, kernels, small problems."""

import threading
import warnings

import numpy as np
import pytest

from repro import FastKernelSolver
from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.hmatrix import build_hmatrix
from repro.hmatrix.dense import assemble_dense_block
from repro.kernels import GaussianKernel, MaternKernel, PolynomialKernel
from repro.learning import GaussianProcessRegressor
from repro.solvers import factorize

RNG = np.random.default_rng(36)


class TestDegenerateGeometry:
    def test_duplicate_points_with_regularization(self):
        """Exact duplicates make K singular; lambda > 0 must still solve."""
        base = RNG.standard_normal((100, 3))
        X = np.vstack([base, base[:50]])  # 50 exact duplicates
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=1.0),
            tree_config=TreeConfig(leaf_size=20, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-6, max_rank=32, num_samples=64, num_neighbors=0, seed=2
            ),
        )
        solver.fit(X)
        solver.factorize(1.0)
        u = RNG.standard_normal(150)
        w, info = solver.solve_with_info(u)
        assert info.residual < 1e-9

    def test_points_on_a_line(self):
        """1-D manifold in 5-D: extreme intrinsic-dimension mismatch."""
        t = np.linspace(0, 10, 300)[:, None]
        direction = RNG.standard_normal((1, 5))
        X = t @ direction + 0.01 * RNG.standard_normal((300, 5))
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=2.0),
            tree_config=TreeConfig(leaf_size=30, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-7, max_rank=48, num_samples=128, num_neighbors=0, seed=2
            ),
        )
        solver.fit(X)
        # low intrinsic dimension -> tiny skeleton ranks.
        assert solver.diagnostics()["mean_rank"] < 24
        solver.factorize(0.5)
        u = RNG.standard_normal(300)
        assert solver.residual(u, solver.solve(u)) < 1e-9

    def test_tiny_problem(self):
        X = RNG.standard_normal((5, 2))
        solver = FastKernelSolver(GaussianKernel(bandwidth=1.0))
        solver.fit(X)
        solver.factorize(0.1)
        u = RNG.standard_normal(5)
        assert solver.residual(u, solver.solve(u)) < 1e-12

    def test_leaf_size_larger_than_n(self):
        X = RNG.standard_normal((30, 3))
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=1.0), tree_config=TreeConfig(leaf_size=1000)
        )
        solver.fit(X)
        assert solver.hmatrix.tree.depth == 0
        solver.factorize(0.2)
        u = RNG.standard_normal(30)
        assert solver.residual(u, solver.solve(u)) < 1e-12


class TestKernelVariety:
    @pytest.mark.parametrize(
        "kernel",
        [MaternKernel(bandwidth=1.5, nu=1.5), PolynomialKernel(degree=2, gamma=0.1)],
        ids=["matern32", "poly2"],
    )
    def test_end_to_end_other_kernels(self, kernel):
        X = RNG.standard_normal((400, 4))
        solver = FastKernelSolver(
            kernel,
            tree_config=TreeConfig(leaf_size=40, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-8, max_rank=64, num_samples=160, num_neighbors=8, seed=2
            ),
        )
        solver.fit(X)
        solver.factorize(2.0)
        u = RNG.standard_normal(400)
        assert solver.residual(u, solver.solve(u)) < 1e-9

    def test_gp_with_matern(self):
        X = RNG.uniform(-1, 1, size=(300, 2))
        y = np.sin(3 * X[:, 0]) + 0.05 * RNG.standard_normal(300)
        gp = GaussianProcessRegressor(
            MaternKernel(bandwidth=0.5, nu=2.5), noise=0.05,
            tree_config=TreeConfig(leaf_size=40, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-8, max_rank=64, num_samples=160, num_neighbors=8, seed=2
            ),
        ).fit(X, y)
        res = gp.predict(X[:20], return_variance=True)
        assert np.sqrt(np.mean((res.mean - y[:20]) ** 2)) < 0.2
        assert (res.variance >= 0).all()


class TestAdaptiveFrontierIntegration:
    @pytest.fixture(scope="class")
    def adaptive_hmatrix(self):
        X = RNG.standard_normal((512, 8))
        return build_hmatrix(
            X,
            GaussianKernel(bandwidth=0.5),
            tree_config=TreeConfig(leaf_size=32, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-12, max_rank=4096, num_samples=256, num_neighbors=0,
                seed=2, adaptive_stop=True,
            ),
        )

    def test_mixed_level_frontier_direct(self, adaptive_hmatrix):
        h = adaptive_hmatrix
        levels = {f.level for f in h.frontier}
        # the point of adaptive stop: the frontier need not be one level.
        fact = factorize(h, 0.5, SolverConfig(check_stability=False))
        u = RNG.standard_normal(h.n_points)
        assert fact.residual(u, fact.solve(u)) < 1e-9

    def test_mixed_level_frontier_hybrid(self, adaptive_hmatrix):
        h = adaptive_hmatrix
        cfg = SolverConfig(
            method="hybrid", check_stability=False,
            gmres=GMRESConfig(tol=1e-10, max_iters=400),
        )
        fact = factorize(h, 0.5, cfg)
        u = RNG.standard_normal(h.n_points)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = fact.solve(u)
        assert fact.residual(u, w) < 1e-7

    def test_taskparallel_on_restricted_frontier(self):
        """Concurrent solves on a restricted frontier's direct
        factorization match sequential solves bitwise."""
        X = RNG.standard_normal((512, 4))
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=2.0),
            tree_config=TreeConfig(leaf_size=32, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-7, max_rank=32, num_samples=128, num_neighbors=0, seed=2,
                level_restriction=2,
            ),
        )
        fact = factorize(h, 0.5, SolverConfig(method="direct"))
        us = [RNG.standard_normal(512) for _ in range(8)]
        expected = [fact.solve(u) for u in us]
        results = [None] * len(us)

        def work(i):
            for _ in range(3):
                results[i] = fact.solve(us[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(us))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)


class TestDenseAssembly:
    def test_block_matches_full_assembly(self, hmatrix_small):
        h = hmatrix_small
        D = h.to_dense()
        for f in h.frontier:
            block = assemble_dense_block(h, f)
            assert np.allclose(block, D[f.lo : f.hi, f.lo : f.hi], atol=1e-12)


class TestDegenerateRightHandSides:
    """Input validation must reject malformed RHS before any numerics."""

    @pytest.fixture(scope="class")
    def factored(self):
        X = RNG.standard_normal((64, 3))
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=1.0), tree_config=TreeConfig(leaf_size=32)
        )
        solver.fit(X)
        solver.factorize(0.5)
        return solver

    def test_rejects_empty_rhs(self, factored):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="non-empty"):
            factored.solve(np.zeros((0,)))

    def test_rejects_zero_column_rhs(self, factored):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="at least one column"):
            factored.solve(np.zeros((64, 0)))

    def test_rejects_nan_rhs(self, factored):
        from repro.exceptions import ConfigurationError

        u = np.ones(64)
        u[13] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            factored.solve(u)

    def test_rejects_inf_rhs(self, factored):
        from repro.exceptions import ConfigurationError

        u = np.ones((64, 2))
        u[5, 1] = np.inf
        with pytest.raises(ConfigurationError, match="non-finite"):
            factored.solve(u)

    def test_rejects_wrong_length_rhs(self, factored):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            factored.solve(np.ones(63))

    def test_multirhs_still_accepted(self, factored):
        W = factored.solve(np.ones((64, 3)))
        assert W.shape == (64, 3) and np.all(np.isfinite(W))
