"""Concurrency safety: shared workspaces and caches under threads."""

import threading

import numpy as np
import pytest

from repro.config import SkeletonConfig, SolverConfig, TreeConfig
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.kernels.gsks import GSKSWorkspace, gsks_matvec
from repro.parallel import distributed_factorize, distributed_solve
from repro.solvers import factorize

RNG = np.random.default_rng(35)


class TestWorkspaceThreadSafety:
    def test_shared_workspace_concurrent_matvecs(self):
        """One workspace, many threads: results must match serial.

        Tiles are thread-local, so concurrent fused summations through a
        shared workspace are race-free.
        """
        kernel = GaussianKernel(bandwidth=1.5)
        ws = GSKSWorkspace(tile_m=32, tile_n=64)
        XA = RNG.standard_normal((150, 5))
        XB = RNG.standard_normal((200, 5))
        us = [RNG.standard_normal(200) for _ in range(8)]
        expected = [kernel(XA, XB) @ u for u in us]

        results = [None] * 8
        errors = []

        def work(i):
            try:
                for _ in range(5):  # repeat to widen the race window
                    results[i] = gsks_matvec(kernel, XA, XB, us[i], workspace=ws)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for got, want in zip(results, expected):
            assert np.allclose(got, want, atol=1e-10)

    def test_taskparallel_fused_factorization(self):
        """Thread-rank factorization with the FUSED summation: the
        regression case for the shared-tile race (the ranks factor
        their subtrees through one H-matrix and its GSKS workspace)."""
        X = RNG.standard_normal((512, 4))
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=2.0),
            tree_config=TreeConfig(leaf_size=32, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-7, max_rank=32, num_samples=128, num_neighbors=0, seed=2
            ),
            summation="fused",
        )
        cfg = SolverConfig(summation="fused")
        serial = factorize(h, 0.5, cfg)
        u = RNG.standard_normal(512)
        w_ref = serial.solve(u)
        for _ in range(3):  # repeated runs to catch flaky interleavings
            dist = distributed_factorize(h, 0.5, 4, cfg, backend="thread")
            w, _ = distributed_solve(dist, u)
            assert np.allclose(w, w_ref, atol=1e-9)

    def test_concurrent_solves_share_factorization(self):
        """solve() is read-only on the factors: concurrent solves agree."""
        X = RNG.standard_normal((512, 4))
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=2.0),
            tree_config=TreeConfig(leaf_size=64, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-7, max_rank=48, num_samples=128, num_neighbors=0, seed=2
            ),
        )
        fact = factorize(h, 0.5)
        us = [RNG.standard_normal(512) for _ in range(6)]
        expected = [fact.solve(u) for u in us]
        results = [None] * 6

        def work(i):
            results[i] = fact.solve(us[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    def test_concurrent_low_storage_solves_serialized(self):
        """Low-storage solves mutate the P^ cache; the solve lock must
        keep concurrent callers correct."""
        X = RNG.standard_normal((512, 4))
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=2.0),
            tree_config=TreeConfig(leaf_size=32, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-7, max_rank=32, num_samples=128, num_neighbors=0, seed=2
            ),
        )
        fact = factorize(h, 0.5, SolverConfig(storage="low"))
        us = [RNG.standard_normal(512) for _ in range(6)]
        expected = [fact.solve(u) for u in us]
        results = [None] * 6

        def work(i):
            results[i] = fact.solve(us[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    def test_hmatrix_cache_single_instance_under_races(self):
        """Lazy caches must resolve to one object per key under threads."""
        X = RNG.standard_normal((256, 3))
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=2.0),
            tree_config=TreeConfig(leaf_size=32, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-6, max_rank=32, num_samples=96, num_neighbors=0, seed=2
            ),
        )
        leaf = h.tree.leaves()[0]
        out = []

        def work():
            out.append(id(h.leaf_block(leaf)))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(out)) == 1
