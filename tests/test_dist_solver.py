"""Distributed factorization/solve (Algorithms II.4/II.5) vs serial."""

import numpy as np
import pytest

from repro.config import SkeletonConfig, SolverConfig, TreeConfig
from repro.exceptions import ConfigurationError
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.parallel import (
    distributed_factorize,
    distributed_hybrid_factorize,
    distributed_hybrid_solve,
    distributed_solve,
)
from repro.solvers import factorize

RNG = np.random.default_rng(10)


@pytest.fixture(scope="module")
def problem():
    X = RNG.standard_normal((640, 4))
    kernel = GaussianKernel(bandwidth=2.5)
    h = build_hmatrix(
        X,
        kernel,
        tree_config=TreeConfig(leaf_size=40, seed=1),
        skeleton_config=SkeletonConfig(
            tau=1e-8, max_rank=48, num_samples=200, num_neighbors=8, seed=2
        ),
    )
    u = RNG.standard_normal(640)
    serial = factorize(h, 0.6, SolverConfig())
    return h, u, serial.solve(u)


class TestAgreementWithSerial:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_solution_matches(self, problem, p):
        h, u, w_serial = problem
        dist = distributed_factorize(h, 0.6, p)
        w, _ = distributed_solve(dist, u)
        assert np.abs(w - w_serial).max() < 1e-10 * max(1.0, np.abs(w_serial).max())

    def test_multiple_rhs(self, problem):
        h, _, _ = problem
        U = RNG.standard_normal((640, 3))
        serial = factorize(h, 0.6, SolverConfig()).solve(U)
        dist = distributed_factorize(h, 0.6, 4)
        W, _ = distributed_solve(dist, U)
        assert np.abs(W - serial).max() < 1e-9

    def test_repeated_solves_reuse_factorization(self, problem):
        h, u, w_serial = problem
        dist = distributed_factorize(h, 0.6, 4)
        w1, _ = distributed_solve(dist, u)
        w2, _ = distributed_solve(dist, 2.0 * u)
        assert np.allclose(w2, 2.0 * w1, atol=1e-9)
        assert np.allclose(w1, w_serial, atol=1e-9)


class TestCommunicationCosts:
    def test_factor_traffic_scales_like_s2_log2p(self, problem):
        """Paper section III: O(s^2 log^2 p) words for the factorization."""
        h, _, _ = problem
        smax = max(sk.rank for sk in h.skeletons.skeletons.values())
        results = {}
        for p in (2, 4, 8):
            dist = distributed_factorize(h, 0.6, p)
            results[p] = dist.factor_stats.bytes / 8  # words
        for p, words in results.items():
            logp = np.log2(p)
            bound = 5.0 * smax * smax * logp * logp + 1000
            assert words < bound, (p, words, bound)

    def test_solve_traffic_much_smaller_than_factor(self, problem):
        h, u, _ = problem
        dist = distributed_factorize(h, 0.6, 8)
        _, stats = distributed_solve(dist, u)
        assert stats.bytes < dist.factor_stats.bytes / 3

    def test_per_rank_flops_recorded(self, problem):
        h, _, _ = problem
        dist = distributed_factorize(h, 0.6, 4)
        flops = [st.factor_flops for st in dist.states]
        assert all(f > 0 for f in flops)
        # median split keeps the load roughly balanced.
        assert max(flops) < 4 * min(flops)


class TestValidation:
    def test_rejects_non_power_of_two(self, problem):
        h, _, _ = problem
        with pytest.raises(ConfigurationError):
            distributed_factorize(h, 0.6, 3)

    def test_rejects_too_many_ranks(self, problem):
        h, _, _ = problem
        with pytest.raises(ConfigurationError):
            distributed_factorize(h, 0.6, 1 << (h.tree.depth + 1))

    def test_rejects_hybrid_method(self, problem):
        h, _, _ = problem
        with pytest.raises(ConfigurationError):
            distributed_factorize(h, 0.6, 2, SolverConfig(method="hybrid"))

    def test_rejects_level_restricted(self):
        X = RNG.standard_normal((256, 3))
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=2.0),
            tree_config=TreeConfig(leaf_size=32, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-6, num_samples=128, num_neighbors=0, level_restriction=2
            ),
        )
        with pytest.raises((ConfigurationError, RuntimeError)):
            distributed_factorize(h, 0.5, 2)


class TestMalformedRightHandSide:
    """Both distributed solves reject what the serial solve rejects.

    Each rank slices ``u[lo:hi]`` from the tree-order vector, so the
    shape and finiteness of ``u`` must be checked before the ranks
    launch: a rank cannot see that the vector is too long, and a NaN
    would come back as a non-finite answer.
    """

    N = 512

    @pytest.fixture(scope="class")
    def handles(self):
        X = np.random.default_rng(3).standard_normal((self.N, 3))

        def build(level_restriction):
            return build_hmatrix(
                X,
                GaussianKernel(bandwidth=1.0),
                tree_config=TreeConfig(leaf_size=32, seed=1),
                skeleton_config=SkeletonConfig(
                    tau=1e-7, max_rank=48, num_samples=128, num_neighbors=8,
                    seed=2, level_restriction=level_restriction,
                ),
            )

        return {
            "nlogn": (
                distributed_factorize(build(0), 0.5, 2, backend="thread"),
                distributed_solve,
            ),
            "hybrid": (
                distributed_hybrid_factorize(
                    build(2), 0.5, 2, SolverConfig(method="hybrid"),
                    backend="thread",
                ),
                distributed_hybrid_solve,
            ),
        }

    @pytest.mark.parametrize("method", ["nlogn", "hybrid"])
    @pytest.mark.parametrize("bad", ["too_long", "nan", "short_block"])
    def test_rejected_like_the_serial_solve(self, handles, method, bad):
        dist, solve = handles[method]
        u = np.random.default_rng(4).standard_normal(self.N)
        if bad == "too_long":
            u = np.concatenate([u, np.ones(7)])
        elif bad == "nan":
            u[100] = np.nan
        else:
            u = np.ones((self.N - 12, 2))
        with pytest.raises(ConfigurationError):
            solve(dist, u)
