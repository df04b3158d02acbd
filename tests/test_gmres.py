"""GMRES: correctness, restarts, histories, breakdowns — and the batched
CGS2 core against the modified Gram-Schmidt loop it replaced."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from repro.config import GMRESConfig, SolverConfig
from repro.exceptions import ConvergenceWarning
from repro.solvers import factorize
from repro.solvers.gmres import gmres, gmres_batched

RNG = np.random.default_rng(7)


def mgs_gmres(matvec, b, tol, max_iters):
    """Oracle: the former single-vector loop — modified Gram-Schmidt plus
    one classical refinement sweep, Givens rotations, no restart."""
    bnorm = np.linalg.norm(b)
    V = [b / bnorm]
    R = np.zeros((max_iters, max_iters))
    cs, sn, g = np.zeros(max_iters), np.zeros(max_iters), np.zeros(max_iters + 1)
    g[0], hist = bnorm, [1.0]
    for k in range(max_iters):
        w = matvec(V[k].copy())
        h = np.zeros(k + 2)
        for _ in range(2):  # MGS sweep, then the CGS refinement sweep
            for i, v in enumerate(V):
                c = v @ w
                h[i] += c
                w = w - c * v
        h[k + 1] = np.linalg.norm(w)
        V.append(w / h[k + 1])
        for i in range(k):
            h[i], h[i + 1] = (cs[i] * h[i] + sn[i] * h[i + 1],
                              -sn[i] * h[i] + cs[i] * h[i + 1])
        d = np.hypot(h[k], h[k + 1])
        cs[k], sn[k] = h[k] / d, h[k + 1] / d
        h[k] = cs[k] * h[k] + sn[k] * h[k + 1]
        R[: k + 1, k] = h[: k + 1]
        g[k + 1], g[k] = -sn[k] * g[k], cs[k] * g[k]
        hist.append(abs(g[k + 1]) / bnorm)
        if hist[-1] < tol:
            break
    y = solve_triangular(R[: k + 1, : k + 1], g[: k + 1])
    return np.array(V[: k + 1]).T @ y, hist


def make_system(n=40, cond=50.0):
    Q, _ = np.linalg.qr(RNG.standard_normal((n, n)))
    s = np.geomspace(1.0, 1.0 / cond, n)
    A = (Q * s) @ Q.T + 0.1 * RNG.standard_normal((n, n)) / n
    b = RNG.standard_normal(n)
    return A, b


class TestCorrectness:
    def test_solves_well_conditioned(self):
        A, b = make_system()
        res = gmres(lambda v: A @ v, b, GMRESConfig(tol=1e-12, max_iters=200))
        assert res.converged
        assert np.allclose(A @ res.x, b, atol=1e-8)

    def test_identity_converges_in_one(self):
        b = RNG.standard_normal(25)
        res = gmres(lambda v: v, b, GMRESConfig(tol=1e-12))
        assert res.converged and res.n_iters <= 1
        assert np.allclose(res.x, b)

    def test_zero_rhs(self):
        res = gmres(lambda v: 2 * v, np.zeros(10))
        assert res.converged and np.allclose(res.x, 0)

    def test_with_initial_guess(self):
        A, b = make_system()
        x_star = np.linalg.solve(A, b)
        res = gmres(
            lambda v: A @ v,
            b,
            GMRESConfig(tol=1e-12, max_iters=100),
            x0=x_star + 1e-6 * RNG.standard_normal(len(b)),
        )
        assert res.converged
        assert res.n_iters < 30

    def test_restarted_converges(self):
        A, b = make_system(n=60, cond=30.0)
        res = gmres(
            lambda v: A @ v, b, GMRESConfig(tol=1e-10, max_iters=400, restart=15)
        )
        assert res.converged
        assert np.allclose(A @ res.x, b, atol=1e-6)

    def test_rejects_2d_rhs(self):
        with pytest.raises(ValueError):
            gmres(lambda v: v, np.zeros((5, 2)))


class TestHistory:
    def test_residuals_recorded_per_iteration(self):
        A, b = make_system()
        res = gmres(lambda v: A @ v, b, GMRESConfig(tol=1e-10, max_iters=100))
        assert len(res.residuals) == res.n_iters + 1
        assert res.residuals[0] == pytest.approx(1.0)
        assert res.final_residual < 1e-10

    def test_full_gmres_residuals_monotone(self):
        A, b = make_system()
        res = gmres(lambda v: A @ v, b, GMRESConfig(tol=1e-12, max_iters=200))
        r = np.array(res.residuals)
        assert (np.diff(r) <= 1e-12).all()

    def test_callback_invoked(self):
        A, b = make_system()
        calls = []
        gmres(
            lambda v: A @ v,
            b,
            GMRESConfig(tol=1e-10, max_iters=50),
            callback=lambda k, r: calls.append((k, r)),
        )
        assert calls
        assert calls[0][0] == 1
        assert all(r >= 0 for _, r in calls)

    def test_reported_residual_matches_true(self):
        A, b = make_system()
        res = gmres(lambda v: A @ v, b, GMRESConfig(tol=1e-9, max_iters=100))
        true = np.linalg.norm(b - A @ res.x) / np.linalg.norm(b)
        assert true == pytest.approx(res.final_residual, abs=1e-8)


class TestHardCases:
    def test_nonconvergence_warns(self):
        A, b = make_system(n=50, cond=1e8)
        with pytest.warns(ConvergenceWarning):
            res = gmres(lambda v: A @ v, b, GMRESConfig(tol=1e-14, max_iters=5))
        assert not res.converged
        assert res.n_iters == 5

    def test_reorthogonalization_helps_accuracy(self):
        A, b = make_system(n=80, cond=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            res_cgs2 = gmres(
                lambda v: A @ v,
                b,
                GMRESConfig(tol=1e-13, max_iters=80, reorthogonalize=True),
            )
            res_mgs = gmres(
                lambda v: A @ v,
                b,
                GMRESConfig(tol=1e-13, max_iters=80, reorthogonalize=False),
            )
        # both should reach small residuals; CGS2 must not be worse by much.
        assert res_cgs2.final_residual <= 10 * res_mgs.final_residual

    def test_singular_operator_breaks_down_gracefully(self):
        n = 20
        P = np.eye(n)
        P[-1, -1] = 0.0  # rank-deficient
        b = np.zeros(n)
        b[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            res = gmres(lambda v: P @ v, b, GMRESConfig(tol=1e-12, max_iters=50))
        # b is in the range here, so GMRES can still converge; must not crash.
        assert np.isfinite(res.x).all()


class TestBreakdown:
    """Hard breakdown (RHS outside the operator's range) is flagged,
    warned about, and answered with a finite least-squares solution —
    not silently reported as converged with a poisoned update."""

    A = np.diag([1.0, 2.0, 3.0, 0.0])  # singular
    b_null = np.ones(4)  # has a null-space component → no solution
    b_range = np.array([1.0, 2.0, 3.0, 0.0])  # in range(A)

    def test_breakdown_flag_and_warning(self):
        with pytest.warns(ConvergenceWarning, match="breakdown"):
            res = gmres(
                lambda v: self.A @ v,
                self.b_null,
                GMRESConfig(tol=1e-10, max_iters=40, restart=10),
            )
        assert res.breakdown and not res.converged
        assert np.isfinite(res.x).all()

    def test_breakdown_residual_is_true_least_squares(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            res = gmres(
                lambda v: self.A @ v,
                self.b_null,
                GMRESConfig(tol=1e-10, max_iters=40, restart=10),
            )
        true = np.linalg.norm(self.b_null - self.A @ res.x) / np.linalg.norm(
            self.b_null
        )
        # min ||b - Ax|| leaves exactly the null-space component: rel 0.5.
        assert res.final_residual == pytest.approx(0.5, abs=1e-12)
        assert true == pytest.approx(res.final_residual, abs=1e-10)

    def test_lucky_breakdown_still_converges(self):
        res = gmres(
            lambda v: self.A @ v,
            self.b_range,
            GMRESConfig(tol=1e-10, max_iters=40),
        )
        assert res.converged and not res.breakdown
        assert np.allclose(self.A @ res.x, self.b_range, atol=1e-9)

    def test_batched_freezes_broken_column(self):
        # col 0 is solvable, col 1 breaks down; the panel must converge
        # col 0 and freeze col 1 instead of spinning every restart.
        B = np.stack([self.b_range, self.b_null], axis=1)
        cfg = GMRESConfig(tol=1e-10, max_iters=200, restart=10)
        with pytest.warns(ConvergenceWarning, match="breakdown"):
            results = gmres_batched(lambda V: self.A @ V, B, cfg)
        ok, bad = results
        assert ok.converged and not ok.breakdown
        assert np.allclose(self.A @ ok.x, self.b_range, atol=1e-9)
        assert bad.breakdown and not bad.converged
        assert np.isfinite(bad.x).all()
        assert bad.final_residual == pytest.approx(0.5, abs=1e-10)
        # frozen, not stalled: the broken column stops at the breakdown
        # iteration instead of burning the whole budget.
        assert bad.n_iters <= 10

    def test_batched_matches_single_on_breakdown(self):
        B = self.b_null[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            single = gmres(
                lambda v: self.A @ v,
                self.b_null,
                GMRESConfig(tol=1e-10, max_iters=40, restart=10),
            )
            (batched,) = gmres_batched(
                lambda V: self.A @ V,
                B,
                GMRESConfig(tol=1e-10, max_iters=40, restart=10),
            )
        assert batched.breakdown == single.breakdown is True
        assert batched.final_residual == pytest.approx(
            single.final_residual, abs=1e-10
        )


class TestAgainstMGSOracle:
    """Same iteration counts and residual histories (to 1e-8) as the
    per-column MGS loop, on operators where orthogonality matters, and
    the same iterate to a tolerance set by the operator's conditioning."""

    def _assert_matches_oracle(self, matvec, B, cfg, x_rtol):
        results = gmres_batched(matvec, B, cfg)
        for c, res in enumerate(results):
            x, hist = mgs_gmres(matvec, B[:, c], cfg.tol, cfg.max_iters)
            assert res.converged
            assert res.n_iters == len(hist) - 1
            np.testing.assert_allclose(res.residuals, hist, rtol=0, atol=1e-8)
            assert np.linalg.norm(res.x - x) <= x_rtol * np.linalg.norm(x)

    def test_ill_conditioned_operator(self):
        n = 80
        Q, _ = np.linalg.qr(RNG.standard_normal((n, n)))
        s = np.concatenate([[1e-8, 1e-6, 1e-4], np.linspace(1.0, 2.0, n - 3)])
        A = (Q * s) @ Q.T
        assert np.linalg.cond(A) >= 1e8
        self._assert_matches_oracle(
            lambda V: A @ V, RNG.standard_normal((n, 4)),
            GMRESConfig(tol=1e-10, max_iters=200), x_rtol=1e-6,
        )

    def test_restricted_hybrid_panel(self, hmatrix_restricted):
        cfg = GMRESConfig(tol=1e-12, max_iters=400)
        fact = factorize(hmatrix_restricted, 0.5, SolverConfig(method="hybrid", gmres=cfg))
        B = RNG.standard_normal((fact.reduced.size, 4))
        self._assert_matches_oracle(fact.reduced_matvec, B, cfg, x_rtol=1e-10)


class TestPanelColumns:
    def test_each_column_matches_its_own_single_solve(self):
        # columns inside invariant subspaces of different sizes converge
        # at different steps; early ones must not ride along to a
        # different answer than their own k = 1 solve.
        n = 60
        Q, _ = np.linalg.qr(RNG.standard_normal((n, n)))
        A = (Q * np.geomspace(1.0, 1e-2, n)) @ Q.T
        B = np.stack([Q[:, :m] @ RNG.standard_normal(m) for m in (8, 16, 24, 40, 60)], axis=1)
        cfg = GMRESConfig(tol=1e-10, max_iters=200)
        panel = gmres_batched(lambda V: A @ V, B, cfg)
        assert len({res.n_iters for res in panel}) > 1
        for c, res in enumerate(panel):
            single = gmres(lambda v: A @ v, B[:, c], cfg)
            assert res.n_iters == single.n_iters
            assert np.abs(res.x - single.x).max() <= 1e-12 * np.abs(single.x).max()


class TestOperatorAliasing:
    """The operator gets a copy, so it may return or edit its argument."""

    def test_operator_returning_its_argument(self):
        B = RNG.standard_normal((30, 3))
        for c, res in enumerate(gmres_batched(lambda V: V, B, GMRESConfig(tol=1e-12))):
            assert res.converged
            assert np.allclose(res.x, B[:, c], atol=1e-12)

    def test_operator_scaling_its_argument_in_place(self):
        def double(V):
            V *= 2.0
            return V

        B = RNG.standard_normal((30, 3))
        for c, res in enumerate(gmres_batched(double, B, GMRESConfig(tol=1e-12))):
            assert res.converged and np.isfinite(res.residuals).all()
            assert np.allclose(res.x, B[:, c] / 2.0, atol=1e-12)
        res = gmres(double, B[:, 0], GMRESConfig(tol=1e-12))
        assert np.allclose(res.x, B[:, 0] / 2.0, atol=1e-12)


def test_krylov_storage_follows_iterations_not_max_iters():
    # sized up front by max_iters, these budgets asked for 47.7 GiB
    # (panel) and 298 GiB (single) on a system that converges in a few
    # dozen steps.
    A, _ = make_system(n=64)
    B = RNG.standard_normal((64, 16))
    tracemalloc.start()
    try:
        panel = gmres_batched(lambda V: A @ V, B, GMRESConfig(tol=1e-10, max_iters=20000))
        single = gmres(lambda v: A @ v, B[:, 0], GMRESConfig(tol=1e-10, max_iters=200000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(res.converged for res in panel) and single.converged
    assert peak < 16 << 20
