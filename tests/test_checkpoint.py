"""Versioned on-disk checkpoints: format, integrity, resume identity.

The format contract (``repro.checkpoint/v1``): every payload carries a
sha256 in MANIFEST.json, the manifest carries a configuration
fingerprint, and any mismatch — corrupt bytes, wrong schema, different
problem — surfaces as :class:`CheckpointError` before a single wrong
number can be produced.  Resume identity: a factorization restarted
from a snapshot must match the uninterrupted one to 1e-12 (bitwise, in
practice, since the restored factors are the same floats).
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.config import (
    RecoveryConfig,
    ResilienceConfig,
    SkeletonConfig,
    SolverConfig,
    TreeConfig,
)
from repro.core import FastKernelSolver
from repro.exceptions import CheckpointError, ConfigurationError
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.resilience import CHECKPOINT_SCHEMA, Checkpoint, config_fingerprint

RNG = np.random.default_rng(17)
X = RNG.standard_normal((512, 4))
U = RNG.standard_normal(512)


def make_solver(checkpoint_dir=None, recovery=False, bandwidth=2.0):
    return FastKernelSolver(
        GaussianKernel(bandwidth=bandwidth),
        tree_config=TreeConfig(leaf_size=64, seed=0),
        skeleton_config=SkeletonConfig(
            tau=1e-8, max_rank=48, num_samples=96, num_neighbors=4, seed=1
        ),
        solver_config=SolverConfig(
            recovery=RecoveryConfig(enabled=recovery),
            resilience=ResilienceConfig(
                checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None
            ),
        ),
    )


class TestFingerprint:
    def test_deterministic(self):
        k = GaussianKernel(bandwidth=2.0)
        cfgs = (TreeConfig(leaf_size=64), SkeletonConfig(tau=1e-6))
        assert config_fingerprint(X, k, *cfgs) == config_fingerprint(X, k, *cfgs)

    def test_sensitive_to_data_kernel_and_config(self):
        k = GaussianKernel(bandwidth=2.0)
        t = TreeConfig(leaf_size=64)
        base = config_fingerprint(X, k, t)
        assert config_fingerprint(X + 1e-12, k, t) != base
        assert config_fingerprint(X, GaussianKernel(bandwidth=2.1), t) != base
        assert config_fingerprint(X, LaplacianKernel(bandwidth=2.0), t) != base
        assert config_fingerprint(X, k, TreeConfig(leaf_size=32)) != base


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        cp = Checkpoint(tmp_path / "cp")
        payload = {"a": np.arange(5.0), "b": "text"}
        cp.save("thing", payload, meta={"note": "roundtrip"})
        cp2 = Checkpoint(tmp_path / "cp")
        assert cp2.has("thing") and "thing" in cp2.names()
        loaded = cp2.load("thing")
        np.testing.assert_array_equal(loaded["a"], payload["a"])
        assert cp2.meta("thing")["note"] == "roundtrip"

    def test_missing_payload_raises(self, tmp_path):
        cp = Checkpoint(tmp_path / "cp")
        with pytest.raises(CheckpointError, match="no payload"):
            cp.load("ghost")

    def test_corrupt_payload_raises_never_unpickles(self, tmp_path):
        cp = Checkpoint(tmp_path / "cp")
        cp.save("data", {"x": 1})
        fname = cp.manifest["payloads"]["data"]["file"]
        with open(os.path.join(cp.path, fname), "r+b") as f:
            f.seek(0)
            f.write(b"\x00\x00\x00\x00")
        with pytest.raises(CheckpointError, match="corrupted"):
            Checkpoint(tmp_path / "cp").load("data")

    def test_schema_mismatch_refused(self, tmp_path):
        cp = Checkpoint(tmp_path / "cp")
        cp.save("data", 1)
        mpath = os.path.join(cp.path, "MANIFEST.json")
        with open(mpath) as f:
            manifest = json.load(f)
        manifest["schema"] = "repro.checkpoint/v999"
        with open(mpath, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(CheckpointError, match="schema"):
            Checkpoint(tmp_path / "cp")

    def test_resume_mode_requires_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            Checkpoint(tmp_path / "empty", mode="resume")

    def test_fingerprint_mismatch_resume_raises_write_restarts(self, tmp_path):
        cp = Checkpoint(tmp_path / "cp", fingerprint="aaa")
        cp.save("data", 1)
        with pytest.raises(CheckpointError, match="fingerprint"):
            Checkpoint(tmp_path / "cp", fingerprint="bbb", mode="resume")
        # write mode treats the directory as stale and starts fresh
        fresh = Checkpoint(tmp_path / "cp", fingerprint="bbb", mode="write")
        assert not fresh.has("data")

    def test_level_payload_filtering(self, tmp_path):
        cp = Checkpoint(tmp_path / "cp")
        cp.save_level(3, {"level": 3}, lam=0.5, method="nlogn")
        cp.save_level(2, {"level": 2}, lam=0.5, method="nlogn")
        assert set(cp.load_levels(lam=0.5, method="nlogn")) == {2, 3}
        # different lambda or method: those factors are not reusable
        assert cp.load_levels(lam=0.7, method="nlogn") == {}
        assert cp.load_levels(lam=0.5, method="hybrid") == {}
        cp.drop_levels()
        assert cp.load_levels(lam=0.5, method="nlogn") == {}

    def test_describe_flags_corruption(self, tmp_path):
        cp = Checkpoint(tmp_path / "cp")
        cp.save("good", 1)
        cp.save("bad", 2)
        fname = cp.manifest["payloads"]["bad"]["file"]
        with open(os.path.join(cp.path, fname), "ab") as f:
            f.write(b"junk")
        desc = Checkpoint(tmp_path / "cp", mode="inspect").describe()
        assert desc["schema"] == CHECKPOINT_SCHEMA
        assert desc["payloads"]["good"]["intact"]
        assert not desc["payloads"]["bad"]["intact"]

    def test_pickle_bomb_is_checkpoint_error(self, tmp_path):
        # a payload whose checksum matches but whose bytes don't unpickle
        cp = Checkpoint(tmp_path / "cp")
        cp.save("data", 1)
        fname = cp.manifest["payloads"]["data"]["file"]
        fpath = os.path.join(cp.path, fname)
        with open(fpath, "wb") as f:
            f.write(b"not a pickle")
        import hashlib

        cp.manifest["payloads"]["data"]["sha256"] = hashlib.sha256(
            b"not a pickle"
        ).hexdigest()
        cp._write_manifest()
        with pytest.raises(CheckpointError, match="unpickle"):
            Checkpoint(tmp_path / "cp").load("data")


class TestResumeIdentity:
    def test_level_resume_matches_uninterrupted(self, tmp_path):
        """A second solver pointed at the snapshot directory reuses the
        completed levels and must produce the identical answer."""
        baseline = make_solver().fit(X)
        baseline.factorize(0.5)
        w_base = baseline.solve(U)

        first = make_solver(tmp_path / "cp").fit(X)
        first.factorize(0.5)

        second = make_solver(tmp_path / "cp").fit(X)
        second.factorize(0.5)  # restores every level from disk
        w_resumed = second.solve(U)
        np.testing.assert_allclose(w_resumed, w_base, rtol=0, atol=1e-12)
        assert second.health is not None

    def test_corrupt_level_fails_loud_not_wrong(self, tmp_path):
        first = make_solver(tmp_path / "cp").fit(X)
        first.factorize(0.5)
        cp = Checkpoint(tmp_path / "cp", mode="inspect")
        name = sorted(n for n in cp.names() if n.startswith("level_"))[0]
        fname = cp.manifest["payloads"][name]["file"]
        with open(os.path.join(cp.path, fname), "r+b") as f:
            f.seek(0)
            f.write(b"\xff\xff\xff\xff")
        second = make_solver(tmp_path / "cp").fit(X)
        with pytest.raises(CheckpointError):
            second.factorize(0.5)

    def test_save_checkpoint_resume_roundtrip(self, tmp_path):
        solver = make_solver(tmp_path / "cp").fit(X)
        solver.factorize(0.5)
        w = solver.solve(U)
        path = solver.save_checkpoint()
        resumed = FastKernelSolver.resume(path)
        assert resumed.factorization is not None  # no re-factorization
        np.testing.assert_allclose(resumed.solve(U), w, rtol=0, atol=1e-12)
        assert resumed.telemetry()["resilience"]["checkpoint_dir"] == str(path)

    def test_resume_without_dir_configured_raises(self):
        solver = make_solver().fit(X)
        solver.factorize(0.5)
        with pytest.raises(ConfigurationError):
            solver.save_checkpoint()

    def test_resume_refuses_foreign_data(self, tmp_path):
        solver = make_solver(tmp_path / "cp").fit(X)
        solver.factorize(0.5)
        solver.save_checkpoint()
        # swap the stored training points: the fingerprint no longer
        # matches the stored skeletons -> refuse, never a wrong answer
        cp = Checkpoint(tmp_path / "cp", mode="inspect")
        entry = cp.manifest["payloads"]["solver"]
        with open(os.path.join(cp.path, entry["file"]), "rb") as f:
            payload = pickle.load(f)
        payload["X"] = payload["X"] + 1.0
        cp.save("solver", payload)
        with pytest.raises(CheckpointError, match="fingerprint"):
            FastKernelSolver.resume(tmp_path / "cp")


class TestLevelPayloadLayout:
    """The ``repro.checkpoint/v1`` ``level_NNN`` payload layout, pinned:
    a change to how factors are transplanted must keep reading the
    checkpoint directories written today."""

    LEVEL_KEYS = {"level", "lam", "leaves", "internals", "recovery_events"}
    LEAF_KEYS = {"lu", "piv", "phat", "rcond", "anorm", "lam_extra"}
    INTERNAL_KEYS = {"z_lu", "piv", "s_l", "s_r", "phat", "rcond"}

    def level_payloads(self, directory):
        cp = Checkpoint(directory, mode="inspect")
        names = sorted(n for n in cp.names() if n.startswith("level_"))
        assert names
        for name in names:
            meta = cp.meta(name)
            payload = cp.load(name)
            assert name == Checkpoint.level_name(meta["level"])
            assert payload["level"] == meta["level"]
            assert payload["lam"] == meta["lam"]
            yield payload

    def test_level_payload_keys(self, tmp_path):
        make_solver(tmp_path / "cp").fit(X).factorize(0.5)
        kinds = set()
        for payload in self.level_payloads(tmp_path / "cp"):
            assert set(payload) == self.LEVEL_KEYS
            assert payload["lam"] == 0.5
            for nid, entry in payload["leaves"].items():
                assert isinstance(nid, int)
                assert set(entry) == self.LEAF_KEYS
                kinds.add("leaf")
            for nid, entry in payload["internals"].items():
                assert isinstance(nid, int)
                assert set(entry) == self.INTERNAL_KEYS
                kinds.add("internal")
        assert kinds == {"leaf", "internal"}

    @pytest.mark.filterwarnings("ignore::repro.exceptions.StabilityWarning")
    def test_level_payload_recovery_events(self, tmp_path):
        gen = np.random.default_rng(0)
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=8.0),  # near rank-1: breaks plain LU
            tree_config=TreeConfig(leaf_size=32),
            skeleton_config=SkeletonConfig(rank=16),
            solver_config=SolverConfig(
                recovery=RecoveryConfig(enabled=True),
                resilience=ResilienceConfig(checkpoint_dir=str(tmp_path / "cp")),
            ),
        ).fit(gen.standard_normal((256, 3)))
        solver.factorize(0.0)
        events = [
            e
            for payload in self.level_payloads(tmp_path / "cp")
            for e in payload["recovery_events"]
        ]
        assert events
        for event in events:
            assert {"stage", "node_id"} <= set(event)


class TestRecoveryLadderRoundtrip:
    """Satellite: a solver that traversed the recovery ladder must
    survive checkpoint save/load with its scars intact."""

    @pytest.fixture()
    def ladder_solver(self, tmp_path):
        gen = np.random.default_rng(0)
        Xs = gen.standard_normal((256, 3))
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=8.0),  # near rank-1: breaks plain LU
            tree_config=TreeConfig(leaf_size=32),
            skeleton_config=SkeletonConfig(rank=16),
            solver_config=SolverConfig(
                recovery=RecoveryConfig(enabled=True),
                resilience=ResilienceConfig(
                    checkpoint_dir=str(tmp_path / "ladder")
                ),
            ),
        ).fit(Xs)
        solver.factorize(0.0)  # unregularized: forces the ladder
        return solver, gen.standard_normal(256)

    def test_health_and_solution_survive_roundtrip(self, ladder_solver):
        solver, u = ladder_solver
        assert solver.health is not None and solver.health.degraded
        w = solver.solve(u)
        path = solver.save_checkpoint()

        resumed = FastKernelSolver.resume(path)
        assert resumed.health is not None
        assert resumed.health.degraded
        assert resumed.health.final_path == solver.health.final_path
        assert [e.stage for e in resumed.health.events] == [
            e.stage for e in solver.health.events
        ]
        np.testing.assert_allclose(resumed.solve(u), w, rtol=0, atol=1e-12)

    def test_recovery_events_survive_in_factorization(self, ladder_solver):
        solver, _ = ladder_solver
        if not getattr(solver.factorization, "recovery_events", None):
            pytest.skip("ladder resolved without lambda bumps this run")
        resumed = FastKernelSolver.resume(solver.save_checkpoint())
        assert (
            resumed.factorization.recovery_events
            == solver.factorization.recovery_events
        )
