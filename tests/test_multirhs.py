"""Multi-RHS (BLAS-3) solve paths against the column-by-column reference.

The end-to-end batching contract: for every factorization
method, ``solve(B)`` with a ``(N, k)`` panel must match solving each
column separately — exactly for the direct methods (same LU, GEMM vs k
GEMVs) and to the Krylov tolerance for the hybrid's lockstep block
GMRES.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GMRESConfig, SolverConfig
from repro.kernels import GaussianKernel
from repro.learning.ridge import KernelRidgeRegressor
from repro.solvers import factorize, gmres, gmres_batched

RNG = np.random.default_rng(41)

K_RHS = 5


def _solve_columns(fact, B):
    return np.stack([fact.solve(B[:, j]) for j in range(B.shape[1])], axis=1)


class TestFactorizationPanels:
    @pytest.mark.parametrize("method", ["nlogn", "nlog2n", "direct"])
    def test_direct_methods_panel_vs_columns(self, hmatrix_small, method):
        n = hmatrix_small.n_points
        B = RNG.standard_normal((n, K_RHS))
        fact = factorize(hmatrix_small, 0.5, SolverConfig(method=method))
        W = fact.solve(B)
        assert W.shape == (n, K_RHS)
        W_cols = _solve_columns(fact, B)
        scale = max(1.0, np.abs(W_cols).max())
        assert np.abs(W - W_cols).max() < 1e-11 * scale

    @pytest.mark.parametrize("method", ["direct", "hybrid"])
    def test_restricted_methods_panel_vs_columns(self, hmatrix_restricted, method):
        n = hmatrix_restricted.n_points
        B = RNG.standard_normal((n, K_RHS))
        cfg = SolverConfig(
            method=method, gmres=GMRESConfig(tol=1e-12, max_iters=400)
        )
        fact = factorize(hmatrix_restricted, 0.5, cfg)
        W = fact.solve(B)
        W_cols = _solve_columns(fact, B)
        scale = max(1.0, np.abs(W_cols).max())
        # hybrid: both sides are GMRES solutions at tol=1e-12.
        assert np.abs(W - W_cols).max() < 1e-8 * scale
        assert fact.residual(B[:, 0], W[:, 0]) < 1e-6


class TestBatchedGMRES:
    def _system(self, n=40, k=4):
        A = np.eye(n) + 0.1 * RNG.standard_normal((n, n))
        B = RNG.standard_normal((n, k))
        return A, B

    def test_matches_single_rhs_gmres(self):
        A, B = self._system()
        cfg = GMRESConfig(tol=1e-12, max_iters=200)
        results = gmres_batched(lambda V: A @ V, B, cfg)
        assert len(results) == B.shape[1]
        for j, res in enumerate(results):
            ref = gmres(lambda v: A @ v, B[:, j], cfg)
            assert np.abs(res.x - ref.x).max() < 1e-9
            assert res.residuals[-1] < 1e-12

    def test_zero_column_is_preconverged(self):
        A, B = self._system(k=3)
        B[:, 1] = 0.0
        results = gmres_batched(lambda V: A @ V, B, GMRESConfig(tol=1e-10))
        assert results[1].n_iters == 0
        assert np.all(results[1].x == 0.0)
        for j in (0, 2):
            assert results[j].residuals[-1] < 1e-10

    def test_x0_and_restart(self):
        A, B = self._system(n=30, k=2)
        cfg = GMRESConfig(tol=1e-11, max_iters=200, restart=7)
        X0 = RNG.standard_normal(B.shape)
        results = gmres_batched(lambda V: A @ V, B, cfg, x0=X0)
        for j, res in enumerate(results):
            rel = np.linalg.norm(B[:, j] - A @ res.x) / np.linalg.norm(B[:, j])
            assert rel < 1e-10


class TestLearningPanels:
    def test_ridge_multioutput_matches_columnwise(self, points_small):
        X = points_small
        Y = RNG.standard_normal((X.shape[0], 3))
        Xq = RNG.standard_normal((9, X.shape[1]))

        def make():
            return KernelRidgeRegressor(GaussianKernel(bandwidth=2.0), lam=1.0)

        model = make().fit(X, Y)
        P = model.predict(Xq)
        assert model.weights.shape == Y.shape
        assert P.shape == (9, 3)
        for j in range(3):
            single = make().fit(X, Y[:, j])
            np.testing.assert_allclose(
                P[:, j], single.predict(Xq), rtol=1e-9, atol=1e-11
            )
