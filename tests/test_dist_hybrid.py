"""Distributed hybrid solver (Algorithms II.6-II.8)."""

import warnings

import numpy as np
import pytest

from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.exceptions import ConfigurationError, ConvergenceWarning
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.parallel import (
    distributed_hybrid_factorize,
    distributed_hybrid_solve,
)
from repro.solvers import factorize

RNG = np.random.default_rng(24)

CFG = SolverConfig(method="hybrid", gmres=GMRESConfig(tol=1e-11, max_iters=300))


@pytest.fixture(scope="module")
def problem():
    X = RNG.standard_normal((1024, 5))
    h = build_hmatrix(
        X,
        GaussianKernel(bandwidth=2.0),
        tree_config=TreeConfig(leaf_size=64, seed=1),
        skeleton_config=SkeletonConfig(
            tau=1e-7, max_rank=64, num_samples=256, num_neighbors=8, seed=2,
            level_restriction=2,
        ),
    )
    u = RNG.standard_normal(1024)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        serial = factorize(h, 0.5, CFG)
        w_serial = serial.solve(u)
    return h, u, w_serial, serial


class TestAgreement:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_serial_hybrid(self, problem, p):
        h, u, w_serial, _ = problem
        dist = distributed_hybrid_factorize(h, 0.5, p, CFG)
        w, _ = distributed_hybrid_solve(dist, u)
        assert np.abs(w - w_serial).max() < 1e-10

    def test_residual_small(self, problem):
        h, u, _, serial = problem
        dist = distributed_hybrid_factorize(h, 0.5, 4, CFG)
        w, _ = distributed_hybrid_solve(dist, u)
        assert serial.residual(u, w) < 1e-9

    def test_repeated_solves(self, problem):
        h, u, _, _ = problem
        dist = distributed_hybrid_factorize(h, 0.5, 2, CFG)
        w1, _ = distributed_hybrid_solve(dist, u)
        w2, _ = distributed_hybrid_solve(dist, 3.0 * u)
        assert np.allclose(w2, 3.0 * w1, atol=1e-8)


class TestPanels:
    def test_panel_matches_single_solves_and_serial_panel(self, problem):
        h, _, _, _ = problem
        B = RNG.standard_normal((h.n_points, 3))
        dist = distributed_hybrid_factorize(h, 0.5, 2, CFG, backend="thread")
        W, _ = distributed_hybrid_solve(dist, B)
        assert W.shape == B.shape
        W_serial = factorize(h, 0.5, CFG).solve(B)
        assert np.abs(W - W_serial).max() < 1e-10
        for c in range(B.shape[1]):
            w, _ = distributed_hybrid_solve(dist, B[:, c])
            assert np.linalg.norm(W[:, c] - w) < 10 * CFG.gmres.tol * np.linalg.norm(w)


class TestLiveWorld:
    def test_socket_solves_on_its_ranks_match_thread_bitwise(self, problem):
        """k single solves and a panel on the ranks that factorized."""
        h, u, _, _ = problem
        B = np.stack([u, RNG.standard_normal(h.n_points)], axis=1)
        dt = distributed_hybrid_factorize(h, 0.5, 2, CFG, backend="thread")
        ds = distributed_hybrid_factorize(h, 0.5, 2, CFG, backend="socket")
        procs = list(ds._world._ranks._procs)
        for rhs in (B[:, 0], B[:, 1], B):
            wt, _ = distributed_hybrid_solve(dt, rhs)
            ws, _ = distributed_hybrid_solve(ds, rhs)
            assert np.array_equal(wt, ws)
        assert ds._world._ranks._procs == procs  # no respawn, no new world
        ds.close()
        assert not any(p.is_alive() for p in procs)


class TestConvergenceReporting:
    @pytest.mark.parametrize("backend", ["thread", "socket"])
    def test_unconverged_solve_warns_once_per_column(self, problem, backend):
        h, u, _, _ = problem
        cfg = SolverConfig(method="hybrid", gmres=GMRESConfig(tol=1e-11, max_iters=3))
        dist = distributed_hybrid_factorize(h, 0.5, 2, cfg, backend=backend)
        B = np.stack([u, -2.0 * u], axis=1)
        with pytest.warns(ConvergenceWarning) as caught:
            distributed_hybrid_solve(dist, B)
        assert sum(issubclass(w.category, ConvergenceWarning) for w in caught) == 2


class TestCommunication:
    def test_solve_traffic_is_allreduce_dominated(self, problem):
        """MatVecV needs one AllReduce of the M-vector per GMRES step."""
        h, u, _, _ = problem
        dist = distributed_hybrid_factorize(h, 0.5, 4, CFG)
        w, stats = distributed_hybrid_solve(dist, u)
        m = dist.states[0].reduced_size
        iters = 0
        # each reduced matvec moves O(p log p) messages of size m.
        assert stats.messages > 0
        assert stats.bytes > m * 8  # at least a few reduced vectors
        assert np.isfinite(w).all()

    def test_frontier_metadata_shared(self, problem):
        h, _, _, _ = problem
        dist = distributed_hybrid_factorize(h, 0.5, 4, CFG)
        sizes = {st.reduced_size for st in dist.states}
        assert len(sizes) == 1  # every rank agrees on the reduced layout
        slices = [tuple(sorted(st.slices)) for st in dist.states]
        assert all(s == slices[0] for s in slices)


class TestValidation:
    def test_rejects_direct_method(self, problem):
        h, _, _, _ = problem
        with pytest.raises(ConfigurationError):
            distributed_hybrid_factorize(h, 0.5, 2, SolverConfig(method="nlogn"))

    def test_rejects_non_power_of_two(self, problem):
        h, _, _, _ = problem
        with pytest.raises(ConfigurationError):
            distributed_hybrid_factorize(h, 0.5, 3, CFG)

    def test_rejects_frontier_above_ranks(self):
        """Frontier at level 1 but 4 ranks (log p = 2): subtrees are not
        covered by whole frontier nodes."""
        X = RNG.standard_normal((512, 4))
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=2.0),
            tree_config=TreeConfig(leaf_size=64, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-6, max_rank=64, num_samples=128, num_neighbors=0,
                level_restriction=1,
            ),
        )
        with pytest.raises((ConfigurationError, RuntimeError)):
            distributed_hybrid_factorize(h, 0.5, 4, CFG)
