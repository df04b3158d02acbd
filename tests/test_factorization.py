"""Factorization/solve: exactness, method equivalence, hybrid, errors.

The central invariant (paper section II-B): the factorization inverts
the H-matrix ``lambda I + K~`` *exactly* up to roundoff — so every
method is checked against a dense solve of ``HMatrix.to_dense()``.
"""

import numpy as np
import pytest

from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig
from repro.exceptions import NotFactorizedError
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.solvers import factorize
from repro.util.flops import FlopCounter

RNG = np.random.default_rng(8)

DIRECT_METHODS = ["nlogn", "nlog2n", "direct"]
ALL_METHODS = DIRECT_METHODS + ["hybrid"]


@pytest.fixture(scope="module")
def dense_small(hmatrix_small):
    return hmatrix_small.to_dense()


@pytest.fixture(scope="module")
def dense_restricted(hmatrix_restricted):
    return hmatrix_restricted.to_dense()


class TestExactness:
    @pytest.mark.parametrize("method", DIRECT_METHODS)
    @pytest.mark.parametrize("lam", [0.05, 0.3, 5.0])
    def test_direct_methods_match_dense(self, hmatrix_small, dense_small, method, lam):
        n = hmatrix_small.n_points
        u = RNG.standard_normal(n)
        fact = factorize(hmatrix_small, lam, SolverConfig(method=method))
        w = fact.solve(u)
        w_ref = np.linalg.solve(dense_small + lam * np.eye(n), u)
        assert np.abs(w - w_ref).max() < 1e-9 * max(1.0, np.abs(w_ref).max())

    @pytest.mark.parametrize("method", DIRECT_METHODS)
    def test_lambda_zero_well_conditioned(self, points_small, method):
        """lam = 0 works when K itself is well conditioned (narrow h).

        For smooth kernels at lam = 0 the matrix is numerically singular
        and *no* solver is meaningful — the regime the paper's stability
        section III describes.
        """
        kernel = GaussianKernel(bandwidth=0.25)
        h = build_hmatrix(
            points_small,
            kernel,
            tree_config=TreeConfig(leaf_size=25, seed=3),
            skeleton_config=SkeletonConfig(
                tau=1e-10, max_rank=128, num_samples=256, num_neighbors=8, seed=5
            ),
        )
        n = h.n_points
        u = RNG.standard_normal(n)
        fact = factorize(h, 0.0, SolverConfig(method=method))
        w = fact.solve(u)
        assert fact.residual(u, w) < 1e-8

    def test_hybrid_matches_to_gmres_tol(self, hmatrix_small, dense_small):
        n = hmatrix_small.n_points
        u = RNG.standard_normal(n)
        cfg = SolverConfig(method="hybrid", gmres=GMRESConfig(tol=1e-12, max_iters=300))
        fact = factorize(hmatrix_small, 0.5, cfg)
        w = fact.solve(u)
        w_ref = np.linalg.solve(dense_small + 0.5 * np.eye(n), u)
        assert np.abs(w - w_ref).max() < 1e-8
        assert fact.reduced_iterations  # GMRES actually ran

    @pytest.mark.parametrize("method", ["direct", "hybrid"])
    def test_level_restricted(self, hmatrix_restricted, dense_restricted, method):
        n = hmatrix_restricted.n_points
        u = RNG.standard_normal(n)
        cfg = SolverConfig(method=method, gmres=GMRESConfig(tol=1e-12, max_iters=400))
        fact = factorize(hmatrix_restricted, 0.8, cfg)
        w = fact.solve(u)
        w_ref = np.linalg.solve(dense_restricted + 0.8 * np.eye(n), u)
        assert np.abs(w - w_ref).max() < 1e-7

    def test_residual_method(self, hmatrix_small):
        n = hmatrix_small.n_points
        u = RNG.standard_normal(n)
        fact = factorize(hmatrix_small, 1.0)
        w = fact.solve(u)
        assert fact.residual(u, w) < 1e-11

    def test_multiple_rhs(self, hmatrix_small, dense_small):
        n = hmatrix_small.n_points
        U = RNG.standard_normal((n, 4))
        fact = factorize(hmatrix_small, 0.2)
        W = fact.solve(U)
        W_ref = np.linalg.solve(dense_small + 0.2 * np.eye(n), U)
        assert np.abs(W - W_ref).max() < 1e-9

    def test_solve_then_matvec_roundtrip(self, hmatrix_small):
        n = hmatrix_small.n_points
        u = RNG.standard_normal(n)
        fact = factorize(hmatrix_small, 0.4)
        w = fact.solve(u)
        back = hmatrix_small.regularized_matvec(0.4, w)
        assert np.allclose(back, u, atol=1e-9)


class TestMethodEquivalence:
    """Paper: [36] and the telescoping method build *the same* factors."""

    def test_phat_identical(self, hmatrix_small):
        f1 = factorize(hmatrix_small, 0.3, SolverConfig(method="nlogn"))
        f2 = factorize(hmatrix_small, 0.3, SolverConfig(method="nlog2n"))
        checked = 0
        for nid, nf in f1.node_factors.items():
            if nf.phat is not None:
                assert np.allclose(nf.phat, f2.node_factors[nid].phat, atol=1e-8)
                checked += 1
        assert checked > 0

    def test_nlog2n_does_more_work(self, points_small, gaussian_kernel):
        # deeper tree accentuates the extra log factor.
        h = build_hmatrix(
            points_small,
            gaussian_kernel,
            tree_config=TreeConfig(leaf_size=13, seed=3),
            skeleton_config=SkeletonConfig(
                rank=12, num_samples=100, num_neighbors=0, seed=5
            ),
        )
        with FlopCounter() as fc1:
            factorize(h, 0.3, SolverConfig(method="nlogn", check_stability=False))
        with FlopCounter() as fc2:
            factorize(h, 0.3, SolverConfig(method="nlog2n", check_stability=False))
        assert fc2.flops > fc1.flops


class TestTelescopeWork:
    """Eq. (10) in push-through form: ``P^_alpha = blkdiag(P^_l, P^_r) y``
    with ``Z_alpha y = P_{[l~ r~] alpha~}``.

    Beyond its ``Z`` solve, a telescoped node costs one GEMM per child,
    ``2 s_alpha (|l| s_l + |r| s_r)`` flops, and the ``V`` blocks enter
    only ``Z``'s products ``K_{l~ r} P^_r`` and ``K_{r~ l} P^_l``.
    """

    @pytest.fixture(scope="class")
    def hmatrix(self, gaussian_kernel):
        X = np.random.default_rng(28).standard_normal((1500, 4))
        return build_hmatrix(
            X,
            gaussian_kernel,
            tree_config=TreeConfig(leaf_size=40, seed=3),
            skeleton_config=SkeletonConfig(
                tau=1e-7, max_rank=48, num_samples=160, num_neighbors=8, seed=5
            ),
        )

    @staticmethod
    def _internal_nodes(h):
        tree = h.tree
        for level in range(tree.depth):
            for node in tree.level_nodes(level):
                if not tree.is_leaf(node):
                    yield node, *tree.children(node)

    @staticmethod
    def _gemm_flops(h, node, left, right):
        sset = h.skeletons
        s_l, s_r = sset[left.id].rank, sset[right.id].rank
        return 2 * sset[node.id].rank * (left.size * s_l + right.size * s_r)

    @pytest.mark.parametrize("storage", ["full", "low"])
    def test_factorize_charges_one_gemm_per_child(self, hmatrix, storage):
        h = hmatrix
        sset = h.skeletons
        # the frontier is the root's children: the coalesced system is
        # the root's Z.
        assert [f.id for f in h.frontier] == [2, 3]
        telescope = gemv = 0
        for node, left, right in self._internal_nodes(h):
            s_l, s_r = sset[left.id].rank, sset[right.id].rank
            gemv += 2 * (s_l * right.size * s_r + s_r * left.size * s_l)
            if sset.is_skeletonized(node.id):
                telescope += self._gemm_flops(h, node, left, right)
        assert telescope > 0
        with FlopCounter() as fc:
            factorize(h, 0.5, SolverConfig(method="nlogn", storage=storage))
        assert fc.by_label["factor_telescope"] == telescope
        assert fc.by_label["summation_gemv"] == gemv

    def test_low_storage_solve_retelescopes_with_one_gemm_per_child(self, hmatrix):
        h = hmatrix
        frontier = {f.id for f in h.frontier}
        dropped = sum(
            self._gemm_flops(h, node, left, right)
            for node, left, right in self._internal_nodes(h)
            if node.id not in frontier and h.skeletons.is_skeletonized(node.id)
        )
        assert dropped > 0
        fact = factorize(h, 0.5, SolverConfig(method="nlogn", storage="low"))
        with FlopCounter() as fc:
            fact.solve(np.random.default_rng(29).standard_normal(h.n_points))
        assert fc.by_label["factor_telescope"] == dropped


class TestSingleLeaf:
    def test_dense_fallback(self, gaussian_kernel):
        X = RNG.standard_normal((30, 3))
        h = build_hmatrix(X, gaussian_kernel, tree_config=TreeConfig(leaf_size=32))
        u = RNG.standard_normal(30)
        fact = factorize(h, 0.1)
        w = fact.solve(u)
        K = gaussian_kernel(h.tree.points, h.tree.points)
        assert np.allclose(w, np.linalg.solve(K + 0.1 * np.eye(30), u), atol=1e-10)


class TestSummationModes:
    @pytest.mark.parametrize("summation", ["precomputed", "reevaluate", "fused"])
    def test_solve_identical_across_summation(self, points_small, gaussian_kernel, summation):
        h = build_hmatrix(
            points_small,
            gaussian_kernel,
            tree_config=TreeConfig(leaf_size=25, seed=3),
            skeleton_config=SkeletonConfig(
                tau=1e-9, max_rank=64, num_samples=220, num_neighbors=8, seed=5
            ),
            summation=summation,
        )
        u = RNG.standard_normal(h.n_points)
        fact = factorize(h, 0.5, SolverConfig(summation=summation))
        w = fact.solve(u)
        assert fact.residual(u, w) < 1e-10


class TestStorage:
    def test_storage_accounting(self, hmatrix_small):
        fact = factorize(hmatrix_small, 0.3)
        assert fact.storage_words() > 0

    def test_fused_summation_stores_less(self, points_small, gaussian_kernel):
        def build(mode):
            h = build_hmatrix(
                points_small,
                gaussian_kernel,
                tree_config=TreeConfig(leaf_size=25, seed=3),
                skeleton_config=SkeletonConfig(
                    tau=1e-9, max_rank=64, num_samples=220, num_neighbors=8, seed=5
                ),
                summation=mode,
            )
            return factorize(h, 0.3, SolverConfig(summation=mode))

        assert build("fused").storage_words() < build("precomputed").storage_words()


class TestErrors:
    def test_solve_before_factorize_raises(self, hmatrix_small):
        from repro.solvers.factorization import HierarchicalFactorization

        fact = HierarchicalFactorization(hmatrix_small, 0.0, SolverConfig())
        with pytest.raises(NotFactorizedError):
            fact.solve(np.zeros(hmatrix_small.n_points))

    def test_negative_lambda_rejected(self, hmatrix_small):
        with pytest.raises(ValueError):
            factorize(hmatrix_small, -1.0)

    def test_wrong_rhs_length(self, hmatrix_small):
        fact = factorize(hmatrix_small, 0.1)
        with pytest.raises(Exception):
            fact.solve(np.zeros(3))

    def test_gmres_iterations_accumulate(self, hmatrix_small):
        cfg = SolverConfig(method="hybrid", gmres=GMRESConfig(tol=1e-8, max_iters=200))
        fact = factorize(hmatrix_small, 1.0, cfg)
        n = hmatrix_small.n_points
        fact.solve(RNG.standard_normal(n))
        first = len(fact.reduced_iterations)
        fact.solve(RNG.standard_normal(n))
        assert len(fact.reduced_iterations) > first
