"""The serialized LAPACK wrapper (OpenBLAS thread-safety workaround)."""

import threading

import numpy as np
import pytest
import scipy.linalg

from repro.util import lapack

RNG = np.random.default_rng(39)


class TestEquivalence:
    def test_lu_roundtrip(self):
        A = RNG.standard_normal((30, 30)) + 10 * np.eye(30)
        b = RNG.standard_normal(30)
        x = lapack.lu_solve(lapack.lu_factor(A), b)
        assert np.allclose(A @ x, b, atol=1e-10)

    def test_qr_matches_scipy(self):
        for shape in [(20, 12), (12, 20)]:
            G = RNG.standard_normal(shape)
            r1, p1 = lapack.qr(G)
            _q, r2, p2 = scipy.linalg.qr(G, mode="economic", pivoting=True)
            assert np.array_equal(p1, p2)
            assert r1.shape == r2.shape
            assert np.array_equal(r1, r2)

    def test_solve_triangular(self):
        R = np.triu(RNG.standard_normal((10, 10))) + 5 * np.eye(10)
        B = RNG.standard_normal((10, 3))
        X = lapack.solve_triangular(R, B)
        assert np.allclose(R @ X, B, atol=1e-10)

    def test_gecon(self):
        A = np.diag(np.geomspace(1.0, 1e-6, 20))
        lu, _ = lapack.lu_factor(A)
        rcond, info = lapack.gecon(lu, np.linalg.norm(A, 1))
        assert info == 0
        assert rcond == pytest.approx(1e-6, rel=1.0)


class TestThreadSafety:
    def test_concurrent_lu_solves_deterministic(self):
        """The regression case: concurrent getrs through the wrapper must
        never corrupt results (raw scipy calls do on this OpenBLAS)."""
        A = RNG.standard_normal((64, 64)) + 10 * np.eye(64)
        lu = lapack.lu_factor(A)
        us = [RNG.standard_normal(64) for _ in range(8)]
        expected = [lapack.lu_solve(lu, u) for u in us]
        bad = []

        def work(i):
            for _ in range(50):
                if not np.array_equal(lapack.lu_solve(lu, us[i]), expected[i]):
                    bad.append(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not bad
