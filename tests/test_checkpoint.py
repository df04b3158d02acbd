"""Versioned on-disk checkpoints: format, integrity, resume identity.

The format contract (``repro.checkpoint/v1``): every payload carries a
sha256 in MANIFEST.json, the manifest carries a configuration
fingerprint, and any mismatch — corrupt bytes, wrong schema, different
problem — surfaces as :class:`CheckpointError` before a single wrong
number can be produced.  Resume identity: a factorization restarted
from a snapshot must match the uninterrupted one to 1e-12, and
``resume()`` rebuilds the saved factorization bitwise from the level
payloads, the one copy of each factor on disk.
"""

from __future__ import annotations

import gc
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
from repro.perf import BlockCache, set_default_cache
from repro.resilience import CHECKPOINT_SCHEMA, Checkpoint, config_fingerprint
from repro.solvers.factorization import HierarchicalFactorization

RNG = np.random.default_rng(17)
X = RNG.standard_normal((512, 4))
U = RNG.standard_normal(512)


def make_solver(
    checkpoint_dir=None, recovery=False, bandwidth=2.0, level=0, budget=None, **solver
):
    return FastKernelSolver(
        GaussianKernel(bandwidth=bandwidth),
        tree_config=TreeConfig(leaf_size=64, seed=0),
        skeleton_config=SkeletonConfig(
            tau=1e-8,
            max_rank=48,
            num_samples=96,
            num_neighbors=4,
            seed=1,
            level_restriction=level,
        ),
        solver_config=SolverConfig(
            recovery=RecoveryConfig(enabled=recovery),
            resilience=ResilienceConfig(
                checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
                work_budget=budget,
            ),
            **solver,
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


class TestResumedBlocks:
    """A resumed solver reads its kernel blocks through its own H-matrix:
    one cache namespace per model, released with the model."""

    @pytest.fixture()
    def cache(self):
        cache = BlockCache()
        previous = set_default_cache(cache)
        yield cache
        set_default_cache(previous)

    def _writer(self, path):
        writer = make_solver(path).fit(X)
        writer.factorize(0.5)
        w = writer.solve(U)
        writer.residual(U, w)
        return writer, w

    def test_resumed_solver_releases_its_blocks(self, tmp_path, cache):
        writer, w = self._writer(tmp_path / "cp")
        path = writer.save_checkpoint()
        before = cache.words
        resumed = FastKernelSolver.resume(path)
        np.testing.assert_array_equal(resumed.solve(U), w)
        resumed.residual(U, w)
        del resumed
        gc.collect()
        assert cache.words == before

    def test_resumed_solver_holds_what_its_writer_held(self, tmp_path, cache):
        writer, _ = self._writer(tmp_path / "cp")
        held = cache.words
        resumed = FastKernelSolver.resume(writer.save_checkpoint())
        resumed.residual(U, resumed.solve(U))
        assert cache.words - held == held
        assert resumed.factorization.hmatrix._ns == resumed.hmatrix._ns


def force_breakdowns(monkeypatch, node_ids):
    """Report one breakdown at each internal node in ``node_ids``, the
    first time it is factored (recovery rung 1 then bumps its subtree)."""
    group = HierarchicalFactorization._factor_internal_group
    forced = set()

    def break_once(self, nodes, key, stacks, broken):
        group(self, nodes, key, stacks, broken)
        for node in nodes:
            if node.id in node_ids and node.id not in forced:
                forced.add(node.id)
                broken.append((node, "forced breakdown"))

    monkeypatch.setattr(HierarchicalFactorization, "_factor_internal_group", break_once)


class TestResumeRebuilds:
    """resume() rebuilds the saved factorization by transplanting every
    node of the level payloads: bitwise, with no factorization work."""

    @pytest.mark.parametrize(
        "method, level, storage",
        [
            ("nlogn", 0, "full"),
            ("nlogn", 0, "low"),
            ("nlog2n", 0, "full"),  # low storage needs telescoping
            ("direct", 2, "full"),
            ("direct", 2, "low"),
            ("hybrid", 2, "full"),
            ("hybrid", 2, "low"),
        ],
    )
    def test_methods_and_storage(
        self, tmp_path, method, level, storage, resume_without_work, model_snapshot
    ):
        writer = make_solver(
            tmp_path / "cp", level=level, method=method, storage=storage
        ).fit(X)
        writer.factorize(0.5)
        expect = model_snapshot(writer, U)
        resumed = resume_without_work(writer.save_checkpoint())
        assert model_snapshot(resumed, U) == expect

    def test_hybrid_resumes_matrix_free_after_its_switch(
        self, tmp_path, resume_without_work, model_snapshot
    ):
        writer = make_solver(tmp_path / "cp", level=2, method="hybrid").fit(X)
        writer.factorize(0.5)
        expect = model_snapshot(writer, U)
        writer.solve(RNG.standard_normal((len(X), 40)))
        assert writer.factorization.reduced_operator == "assembled"
        resumed = resume_without_work(writer.save_checkpoint())
        assert resumed.factorization.reduced_operator == "matrix-free"
        assert model_snapshot(resumed, U) == expect

    @pytest.mark.filterwarnings("ignore::repro.exceptions.StabilityWarning")
    def test_lambda_bumps_resume_in_order(
        self, tmp_path, monkeypatch, resume_without_work, model_snapshot
    ):
        """Leaf bumps and two internal ones: a transplant restores an
        internal node's event with its first leaf, yet the resumed
        factorization lists the events as the writer recorded them."""
        gen = np.random.default_rng(0)
        writer = FastKernelSolver(
            GaussianKernel(bandwidth=8.0),  # near rank-1: breaks plain LU
            tree_config=TreeConfig(leaf_size=32),
            skeleton_config=SkeletonConfig(rank=16),
            solver_config=SolverConfig(
                recovery=RecoveryConfig(enabled=True),
                resilience=ResilienceConfig(checkpoint_dir=str(tmp_path / "cp")),
            ),
        ).fit(gen.standard_normal((256, 3)))
        force_breakdowns(monkeypatch, {4, 7})
        writer.factorize(0.0)
        monkeypatch.undo()
        bumped = [e["node_id"] for e in writer.factorization.recovery_events]
        assert {4, 7} < set(bumped)
        assert not writer.diagnostics()["stable"]
        u = gen.standard_normal(256)
        expect = model_snapshot(writer, u)
        resumed = resume_without_work(writer.save_checkpoint())
        assert model_snapshot(resumed, u) == expect

    def test_state_follows_the_last_factorize(self, tmp_path, resume_without_work):
        """A checkpointed factorize writes ``state`` when it finishes, so
        a refit after save_checkpoint() resumes at the refit's lambda."""
        writer = make_solver(tmp_path / "cp").fit(X)
        writer.factorize(0.5)
        writer.save_checkpoint()
        writer.factorize(1.0)
        resumed = resume_without_work(str(tmp_path / "cp"))
        assert resumed.factorization.lam == 1.0
        np.testing.assert_array_equal(resumed.solve(U), writer.solve(U))

    def test_killed_refit_resumes_the_previous_lambda(self, tmp_path, monkeypatch):
        """A refit killed after its first level leaves the previous
        ``state``: resume returns that lambda, refactored, since the
        refit overwrote the leaf level and a node is transplanted only
        when its children were."""
        writer = make_solver(tmp_path / "cp").fit(X)
        writer.factorize(0.5)
        w = writer.solve(U)

        class Killed(Exception):
            pass

        save_level = Checkpoint.save_level

        def save_then_die(self, level, payload, **kwargs):
            save_level(self, level, payload, **kwargs)
            raise Killed

        monkeypatch.setattr(Checkpoint, "save_level", save_then_die)
        with pytest.raises(Killed):
            writer.factorize(1.0)
        monkeypatch.undo()
        resumed = FastKernelSolver.resume(tmp_path / "cp")
        assert resumed.factorization.lam == 0.5
        assert resumed.factorization.nodes_resumed == 0
        np.testing.assert_array_equal(resumed.solve(U), w)


class TestStateWrittenWithTheFactorization:
    """Directories written when ``state`` pickled the whole
    factorization still resume: it is read for its final path, then
    dropped, and the factors come from the level payloads."""

    @pytest.mark.parametrize(
        "method, level, budget",
        [("nlogn", 0, None), ("direct", 2, None), ("nlogn", 0, 10)],
        ids=["nlogn", "direct", "frontier_freeze"],
    )
    def test_pickled_factorization_resumes_bitwise(
        self, tmp_path, method, level, budget, resume_without_work, model_snapshot
    ):
        writer = make_solver(
            tmp_path / "cp", level=level, method=method, budget=budget
        ).fit(X)
        writer.factorize(0.5)
        if budget is not None:
            assert writer.health.final_path == "hybrid"
        expect = model_snapshot(writer, U)
        path = writer.save_checkpoint()
        cp = Checkpoint(path, fingerprint=writer.fingerprint())
        cp.save(
            "state",
            {
                "factorization": writer.factorization,
                "health": writer.health,
                "times": writer.times,
                "lam": writer.factorization.lam,
            },
        )
        resumed = resume_without_work(path)
        assert model_snapshot(resumed, U) == expect


def unpickled_classes(cp: Checkpoint, name: str) -> set[str]:
    """Names of the classes that unpickling payload ``name`` looks up."""
    found: set[str] = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, cls):
            found.add(cls)
            return super().find_class(module, cls)

    with open(os.path.join(cp.path, cp.meta(name)["file"]), "rb") as f:
        Recorder(f).load()
    return found


class TestOneCopyOnDisk:
    """Each factor is stored once, in its level payload; the H-matrix
    once, in ``skeletons``."""

    @pytest.mark.parametrize(
        "method, level, budget",
        [("nlogn", 0, None), ("hybrid", 2, None), ("nlogn", 0, 3)],
        ids=["nlogn", "hybrid", "iterative"],
    )
    def test_only_skeletons_unpickles_an_hmatrix(self, tmp_path, method, level, budget):
        solver = make_solver(
            tmp_path / "cp", level=level, method=method, budget=budget
        ).fit(X)
        solver.factorize(0.5)
        solver.solve(U)
        cp = Checkpoint(solver.save_checkpoint(), mode="inspect")
        assert "state" in cp.names()
        for name in cp.names():
            found = unpickled_classes(cp, name)
            assert ("HMatrix" in found) == (name == "skeletons"), name
            assert not {"HierarchicalFactorization", "IterativeFallback"} & found

    def test_hybrid_state_does_not_grow_with_solves(self, tmp_path):
        """GMRES histories and the assembled reduced operator stay off
        disk: ``state`` is the same bytes after 1 solved column and
        after 40, past the assembly switch."""
        solver = make_solver(tmp_path / "cp", level=2, method="hybrid").fit(X)
        solver.factorize(0.5)
        solver.solve(U)

        def state_bytes():
            cp = Checkpoint(solver.save_checkpoint(), mode="inspect")
            with open(os.path.join(cp.path, cp.meta("state")["file"]), "rb") as f:
                return f.read()

        one = state_bytes()
        # the factorization's own solve leaves the stage clock alone.
        solver.factorization.solve(RNG.standard_normal((len(X), 39)))
        assert solver.factorization.reduced_operator == "assembled"
        assert state_bytes() == one
