"""Incremental updates (insert/delete, lambda/bandwidth sweeps) vs rebuilds.

Acceptance: after inserting 1% clustered points into N=4096,
``update()`` must match a from-scratch rebuild to 1e-10 while
refactorizing fewer than 25% of the nodes, and a five-value lambda
sweep must run at least 3x faster than five rebuilds.  The wide-bandwidth /
large-sample recipe below is what makes 1e-10 achievable — the ASKIT
approximation error, not the update machinery, is the accuracy floor.
"""

import time
import warnings

import numpy as np
import pytest

from repro.config import (
    RecoveryConfig,
    ResilienceConfig,
    SkeletonConfig,
    SolverConfig,
    TreeConfig,
)
from repro.core.solver import FastKernelSolver
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    DeadlineExceededError,
)
from repro.kernels import GaussianKernel, MaternKernel
from repro.obs import registry
from repro.perf import configure_default_cache
from repro.resilience.checkpoint import Checkpoint
from repro.solvers.recovery import SolverHealth

RNG = np.random.default_rng(42)


def make_solver(
    X,
    *,
    bandwidth=8.0,
    num_samples=2048,
    solver_config=None,
    fit=True,
):
    solver = FastKernelSolver(
        GaussianKernel(bandwidth=bandwidth),
        tree_config=TreeConfig(leaf_size=64, seed=1),
        skeleton_config=SkeletonConfig(
            tau=1e-12, num_samples=num_samples, num_neighbors=64, seed=2
        ),
        solver_config=solver_config or SolverConfig(),
    )
    if fit:
        solver.fit(X)
    return solver


def clustered_inserts(X, k, scale=0.02, seed=7):
    """k new points huddled around one existing point: dirties few leaves."""
    rng = np.random.default_rng(seed)
    return X[7] + scale * rng.standard_normal((k, X.shape[1]))


def rel_err(w, w_ref):
    return np.abs(w - w_ref).max() / max(1.0, np.abs(w_ref).max())


# ---------------------------------------------------------------------------
# acceptance-scale parity (the ISSUE's headline numbers)
# ---------------------------------------------------------------------------
class TestAcceptanceParity:
    def test_insert_one_percent_clustered(self):
        n, lam = 4096, 5.0
        X = RNG.standard_normal((n, 4))
        Xi = clustered_inserts(X, n // 100)
        u = RNG.standard_normal(n + len(Xi))

        solver = make_solver(X)
        solver.factorize(lam)
        before = registry().total("update.nodes_refactored")
        solver.update(X_insert=Xi)
        report = solver.last_update

        fresh = make_solver(np.concatenate([X, Xi]))
        fresh.factorize(lam)

        assert report.mode == "incremental"
        assert not report.full_rebuild
        assert report.n_inserted == len(Xi)
        assert solver.n_points == n + len(Xi)
        # < 25% of the nodes touched, and the counter agrees with the report
        assert report.nodes_refactored < 0.25 * report.nodes_total
        assert report.nodes_reused > 0
        delta = registry().total("update.nodes_refactored") - before
        assert delta == report.nodes_refactored
        # parity with the from-scratch rebuild
        assert rel_err(solver.solve(u), fresh.solve(u)) < 1e-10

    def test_lambda_sweep_three_times_faster_than_rebuilds(self):
        """Five ``update(lam=)`` refits take at most a third of the time
        of five fresh builds: a refit keeps the tree, the skeletons and
        the cached kernel blocks that a build (cold cache) makes anew.
        """
        lambdas = (0.1, 0.5, 1.0, 5.0, 25.0)
        X = np.random.default_rng(2017).standard_normal((1024, 3))
        configure_default_cache()
        solver = make_solver(X, num_samples=1024)
        solver.factorize(5.0)
        solver.update(X_insert=clustered_inserts(X, len(X) // 100))

        modes = []
        t0 = time.perf_counter()
        for lam in lambdas:
            solver.update(lam=lam)
            modes.append(solver.last_update.mode)
        t_sweep = time.perf_counter() - t0

        t_rebuild = 0.0
        for lam in lambdas:
            configure_default_cache()
            t0 = time.perf_counter()
            make_solver(solver._X, num_samples=1024).factorize(lam)
            t_rebuild += time.perf_counter() - t0

        assert modes == ["lambda"] * len(lambdas)
        assert t_sweep <= t_rebuild / 3.0, (
            f"sweep {t_sweep:.3f}s vs rebuilds {t_rebuild:.3f}s "
            f"({t_rebuild / t_sweep:.2f}x, contract >= 3x)"
        )


# ---------------------------------------------------------------------------
# smaller-scale geometry updates
# ---------------------------------------------------------------------------
class TestGeometryUpdates:
    N = 1024
    LAM = 5.0

    @pytest.fixture()
    def X(self):
        return np.random.default_rng(3).standard_normal((self.N, 4))

    def factorized(self, X):
        solver = make_solver(X, num_samples=512)
        solver.factorize(self.LAM)
        return solver

    def test_delete_parity(self, X):
        solver = self.factorized(X)
        # drop a handful of scattered points
        delete = np.array([5, 17, 300, 301, 999])
        solver.update(X_delete=delete)
        assert solver.last_update.mode == "incremental"
        assert solver.last_update.n_deleted == len(delete)
        X_new = np.delete(X, delete, axis=0)
        assert solver.n_points == len(X_new)
        fresh = make_solver(X_new, num_samples=512)
        fresh.factorize(self.LAM)
        u = np.random.default_rng(4).standard_normal(len(X_new))
        assert rel_err(solver.solve(u), fresh.solve(u)) < 1e-9

    def test_mixed_insert_delete_order_contract(self, X):
        solver = self.factorized(X)
        Xi = clustered_inserts(X, 8)
        delete = np.array([0, 50, 1000])
        solver.update(X_insert=Xi, X_delete=delete)
        # new user order is concat(delete(X_old, X_delete), X_insert)
        expected = np.concatenate([np.delete(X, delete, axis=0), Xi])
        assert np.array_equal(solver._X, expected)
        fresh = make_solver(expected, num_samples=512)
        fresh.factorize(self.LAM)
        u = np.random.default_rng(5).standard_normal(len(expected))
        assert rel_err(solver.solve(u), fresh.solve(u)) < 1e-9

    def test_unfactorized_update_keeps_solver_unfactorized(self, X):
        solver = make_solver(X, num_samples=512)  # fitted, never factorized
        Xi = clustered_inserts(X, 4)
        solver.update(X_insert=Xi)
        assert solver.n_points == self.N + 4
        assert solver.factorization is None
        assert solver.last_update.nodes_total == 0
        solver.factorize(self.LAM)  # still usable afterwards
        solver.solve(np.ones(self.N + 4))

    def test_update_requires_fit(self):
        solver = make_solver(None, fit=False)
        with pytest.raises(Exception):
            solver.update(lam=1.0)

    def test_delete_out_of_range(self, X):
        solver = self.factorized(X)
        with pytest.raises(ConfigurationError):
            solver.update(X_delete=np.array([self.N]))

    def test_no_arguments_rejected(self, X):
        solver = self.factorized(X)
        with pytest.raises(ConfigurationError):
            solver.update()


# ---------------------------------------------------------------------------
# lambda refits and kernel-parameter sweeps
# ---------------------------------------------------------------------------
class TestLambdaAndKernelUpdates:
    @pytest.fixture(scope="class")
    def X(self):
        return np.random.default_rng(6).standard_normal((768, 4))

    def test_lambda_noop(self, X):
        solver = make_solver(X, num_samples=512)
        solver.factorize(2.0)
        fact = solver.factorization
        solver.update(lam=2.0)
        assert solver.last_update.mode == "noop"
        assert solver.factorization is fact  # untouched, not refactorized

    def test_lambda_refit_matches_fresh_factorize(self, X):
        solver = make_solver(X, num_samples=512)
        solver.factorize(2.0)
        solver.update(lam=0.5)
        assert solver.last_update.mode == "lambda"
        assert solver.factorization.lam == 0.5
        fresh = make_solver(X, num_samples=512)
        fresh.factorize(0.5)
        u = np.random.default_rng(7).standard_normal(len(X))
        # same deterministic pipeline, only the construction is shared
        assert rel_err(solver.solve(u), fresh.solve(u)) < 1e-12

    def test_lambda_sweep_never_solves_stale_factors(self, X):
        solver = make_solver(X, num_samples=512)
        solver.factorize(1.0)
        u = np.random.default_rng(8).standard_normal(len(X))
        for lam in [0.1, 1.0, 10.0]:
            solver.update(lam=lam)
            assert solver.factorization.lam == lam
            fresh = make_solver(X, num_samples=512)
            fresh.factorize(lam)
            assert rel_err(solver.solve(u), fresh.solve(u)) < 1e-12

    def test_bandwidth_sweep(self, X):
        solver = make_solver(X, num_samples=512, bandwidth=8.0)
        solver.factorize(2.0)
        solver.update(kernel_params={"bandwidth": 6.0})
        report = solver.last_update
        assert report.mode == "kernel"
        assert report.kernel_params == {"bandwidth": 6.0}
        assert solver.kernel.bandwidth == 6.0
        fresh = make_solver(X, num_samples=512, bandwidth=6.0)
        fresh.factorize(2.0)
        u = np.random.default_rng(9).standard_normal(len(X))
        # frozen skeleton structure + LS-refit projections: looser parity
        assert rel_err(solver.solve(u), fresh.solve(u)) < 1e-4

    def test_kernel_params_validated(self, X):
        solver = make_solver(X, num_samples=512)
        solver.factorize(1.0)
        with pytest.raises(ConfigurationError, match="no parameter"):
            solver.update(kernel_params={"bandwith": 1.0})

    def test_kernel_params_exclusive_with_geometry(self, X):
        solver = make_solver(X, num_samples=512)
        solver.factorize(1.0)
        with pytest.raises(ConfigurationError, match="cannot be combined"):
            solver.update(
                X_insert=np.zeros((1, 4)), kernel_params={"bandwidth": 2.0}
            )

    def test_generic_kernel_rebuild(self):
        """kernel_params works for any kernel via introspection."""
        X = np.random.default_rng(10).standard_normal((384, 3))
        solver = FastKernelSolver(
            MaternKernel(bandwidth=4.0, nu=1.5),
            tree_config=TreeConfig(leaf_size=48, seed=1),
            skeleton_config=SkeletonConfig(
                tau=1e-8, num_samples=192, num_neighbors=16, seed=2
            ),
        )
        solver.fit(X)
        solver.factorize(1.0)
        solver.update(kernel_params={"nu": 2.5})
        assert solver.kernel.nu == 2.5
        assert solver.kernel.bandwidth == 4.0  # untouched params carried over
        solver.solve(np.ones(len(X)))


# ---------------------------------------------------------------------------
# full-rebuild fallbacks
# ---------------------------------------------------------------------------
class TestRebuildFallbacks:
    @pytest.fixture()
    def X(self):
        return np.random.default_rng(11).standard_normal((512, 4))

    def test_dirty_fraction_threshold_forces_rebuild(self, X):
        cfg = SolverConfig(update_rebuild_threshold=0.01)
        solver = make_solver(X, num_samples=256, solver_config=cfg)
        solver.factorize(2.0)
        before = registry().total("update.full_rebuilds")
        solver.update(X_insert=clustered_inserts(X, 32))
        report = solver.last_update
        assert report.mode == "rebuild"
        assert report.full_rebuild
        assert report.nodes_refactored == report.nodes_total > 0
        assert registry().total("update.full_rebuilds") == before + 1
        # the rebuilt solver is a from-scratch fit: exact parity
        fresh = make_solver(
            np.concatenate([X, clustered_inserts(X, 32)]), num_samples=256
        )
        fresh.factorize(2.0)
        u = np.random.default_rng(12).standard_normal(solver.n_points)
        assert rel_err(solver.solve(u), fresh.solve(u)) < 1e-12

    def test_unroutable_tree_falls_back(self, X):
        solver = make_solver(X, num_samples=256)
        solver.factorize(2.0)
        # simulate a tree unpickled from a pre-routing checkpoint
        solver.hmatrix.tree.splits = {}
        assert not solver.hmatrix.tree.has_routing
        solver.update(X_insert=clustered_inserts(X, 4))
        assert solver.last_update.mode == "rebuild"
        assert solver.n_points == len(X) + 4

    def test_emptied_leaf_falls_back(self, X):
        solver = make_solver(X, num_samples=256)
        solver.factorize(2.0)
        tree = solver.hmatrix.tree
        leaf = tree.leaf_of_position(0)
        users = np.sort(tree.perm[leaf.lo : leaf.hi])
        solver.update(X_delete=users)
        assert solver.last_update.mode == "rebuild"
        assert solver.n_points == len(X) - len(users)

    def test_threshold_config_validated(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(update_rebuild_threshold=0.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(update_rebuild_threshold=1.5)

    def test_threshold_not_in_fingerprint(self, X):
        a = make_solver(X, num_samples=256)
        b = make_solver(
            X,
            num_samples=256,
            solver_config=SolverConfig(update_rebuild_threshold=0.5),
        )
        assert a.fingerprint() == b.fingerprint()


# ---------------------------------------------------------------------------
# fingerprints and checkpoints across updates
# ---------------------------------------------------------------------------
class TestFingerprintAndCheckpoint:
    @pytest.fixture()
    def X(self):
        return np.random.default_rng(13).standard_normal((512, 4))

    def test_fingerprint_tracks_data_mutation(self, X):
        solver = make_solver(X, num_samples=256)
        solver.factorize(1.0)
        fp0 = solver.fingerprint()
        solver.update(lam=2.0)
        assert solver.fingerprint() == fp0  # lambda is not part of the data
        solver.update(X_insert=clustered_inserts(X, 4))
        fp1 = solver.fingerprint()
        assert fp1 != fp0
        solver.update(X_delete=np.array([0]))
        assert solver.fingerprint() not in (fp0, fp1)

    def test_checkpoint_rewritten_after_update(self, X, tmp_path):
        solver = make_solver(X, num_samples=256)
        solver.factorize(1.0)
        solver.save_checkpoint(str(tmp_path))
        cfg = solver.solver_config
        solver.solver_config = cfg.__class__(
            **{**cfg.__dict__, "resilience": cfg.resilience.__class__(
                **{**cfg.resilience.__dict__, "checkpoint_dir": str(tmp_path)}
            )}
        )
        solver.update(X_insert=clustered_inserts(X, 4))
        resumed = FastKernelSolver.resume(str(tmp_path))
        assert resumed.n_points == solver.n_points
        u = np.random.default_rng(14).standard_normal(solver.n_points)
        assert np.array_equal(resumed.solve(u), solver.solve(u))

    def checkpointed(self, X, tmp_path):
        config = SolverConfig(
            resilience=ResilienceConfig(checkpoint_dir=str(tmp_path))
        )
        solver = make_solver(X, num_samples=256, solver_config=config)
        solver.factorize(1.0)
        return solver

    @staticmethod
    def die_after_first_level(monkeypatch):
        class Killed(Exception):
            pass

        save_level = Checkpoint.save_level
        calls = []

        def save_then_die(self, level, payload, **kwargs):
            save_level(self, level, payload, **kwargs)
            calls.append(level)
            if len(calls) == 1:
                raise Killed

        monkeypatch.setattr(Checkpoint, "save_level", save_then_die)
        return Killed

    def test_failed_update_puts_the_checkpoint_back(
        self, X, tmp_path, monkeypatch
    ):
        """The refactorization writes the updated model level by level;
        an update that then raises rolls the solver back and must put
        the directory back in step with it."""
        solver = self.checkpointed(X, tmp_path)
        killed = self.die_after_first_level(monkeypatch)
        with pytest.raises(killed):
            solver.update(X_insert=clustered_inserts(X, 4))
        assert solver.n_points == len(X)

        resumed = FastKernelSolver.resume(str(tmp_path))
        assert resumed.fingerprint() == solver.fingerprint()
        u = np.random.default_rng(15).standard_normal(solver.n_points)
        assert np.array_equal(resumed.solve(u), solver.solve(u))

    def test_kill_mid_update_leaves_a_resumable_checkpoint(
        self, X, tmp_path, monkeypatch
    ):
        """A process killed after the update's first level lands runs no
        rollback (``apply_update`` is called bare here): the directory
        holds the updated model, which resume() returns and factorize()
        finishes."""
        from repro.core.update import apply_update

        solver = self.checkpointed(X, tmp_path)
        Xi = clustered_inserts(X, 4)
        killed = self.die_after_first_level(monkeypatch)
        with pytest.raises(killed):
            apply_update(solver, X_insert=Xi)
        monkeypatch.undo()

        resumed = FastKernelSolver.resume(str(tmp_path))
        assert resumed.n_points == len(X) + len(Xi)
        resumed.factorize(1.0)
        reference = make_solver(X, num_samples=256)
        reference.factorize(1.0)
        reference.update(X_insert=Xi)
        u = np.random.default_rng(15).standard_normal(reference.n_points)
        assert rel_err(resumed.solve(u), reference.solve(u)) < 1e-12

    def test_resume_rejects_stale_skeletons(self, X, tmp_path):
        """Point-count mismatch between payloads → typed CheckpointError."""
        solver = make_solver(X, num_samples=256)
        solver.factorize(1.0)
        solver.save_checkpoint(str(tmp_path))
        # simulate a crash between mutating the model and re-checkpointing:
        # the manifest/solver payload still validate, but the skeletons
        # belong to a smaller point set.
        small = make_solver(X[: len(X) // 2], num_samples=128)
        cp = Checkpoint(
            str(tmp_path), fingerprint=solver._fingerprint(), mode="write"
        )
        cp.save("skeletons", small.hmatrix)
        with pytest.raises(CheckpointError, match="updated without"):
            FastKernelSolver.resume(str(tmp_path))


# ---------------------------------------------------------------------------
# one factorization path: kernel and point updates refactorize as
# factorize() does (recovery, pipeline deadline, checkpoints, health)
# ---------------------------------------------------------------------------
def small_solver(X, solver_config):
    return FastKernelSolver(
        GaussianKernel(bandwidth=2.0),
        tree_config=TreeConfig(leaf_size=32, seed=1),
        skeleton_config=SkeletonConfig(
            tau=1e-8, num_samples=128, num_neighbors=8, seed=2
        ),
        solver_config=solver_config,
    ).fit(X)


def break_down_once_above(solver, point, monkeypatch):
    """Report one breakdown at the parent of the leaf holding ``point``,
    the first time that node is factored; returns the node's id."""
    from repro.solvers.factorization import HierarchicalFactorization

    tree = solver.hmatrix.tree
    parent = tree.leaf_of_position(int(tree.iperm[point])).id // 2
    group = HierarchicalFactorization._factor_internal_group
    forced = []

    def break_once(self, nodes, key, stacks, broken):
        group(self, nodes, key, stacks, broken)
        for node in nodes:
            if node.id == parent and not forced:
                forced.append(node.id)
                broken.append((node, "forced breakdown"))

    monkeypatch.setattr(
        HierarchicalFactorization, "_factor_internal_group", break_once
    )
    return parent


class TestOneFactorizationPath:
    @pytest.fixture()
    def X(self):
        return np.random.default_rng(23).standard_normal((256, 3))

    @pytest.mark.parametrize("armed", ["none", "recovery", "deadline", "checkpoint"])
    @pytest.mark.parametrize(
        "mode", ["lambda", "kernel", "insert", "delete", "rebuild"]
    )
    def test_health_after_every_update_mode(self, X, armed, mode, tmp_path):
        resilience = {
            "deadline": ResilienceConfig(work_budget=10**6),
            "checkpoint": ResilienceConfig(checkpoint_dir=str(tmp_path)),
        }.get(armed, ResilienceConfig())
        config = SolverConfig(
            recovery=RecoveryConfig(enabled=armed == "recovery"),
            resilience=resilience,
            update_rebuild_threshold=1e-6 if mode == "rebuild" else 0.25,
        )
        solver = small_solver(X, config)
        solver.factorize(1.0)
        update = {
            "lambda": dict(lam=2.0),
            "kernel": dict(kernel_params={"bandwidth": 2.5}),
            "insert": dict(X_insert=clustered_inserts(X, 2)),
            "delete": dict(X_delete=np.array([0])),
            "rebuild": dict(X_insert=clustered_inserts(X, 2)),
        }[mode]
        solver.update(**update)
        expected = {"insert": "incremental", "delete": "incremental"}
        assert solver.last_update.mode == expected.get(mode, mode)
        if armed == "none":
            assert solver.health is None
        else:
            assert isinstance(solver.health, SolverHealth)

    def test_incremental_insert_charges_the_pipeline_budget(self, X):
        solver = small_solver(
            X, SolverConfig(resilience=ResilienceConfig(work_budget=10**6))
        )
        solver.factorize(1.0)
        budget = solver._deadline.budget
        charged = {}
        for name, update in (
            ("lambda", dict(lam=2.0)),
            ("insert", dict(X_insert=clustered_inserts(X, 2))),
        ):
            used = budget.used
            solver.update(**update)
            charged[name] = budget.used - used
            # one unit per refactored node; transplanted nodes are free
            assert charged[name] == solver.last_update.nodes_refactored
        assert solver.last_update.mode == "incremental"
        assert 0 < charged["insert"] < charged["lambda"]

    def test_spent_deadline_leaves_the_solver_as_it_was(self, X):
        solver = small_solver(
            X,
            SolverConfig(
                resilience=ResilienceConfig(work_budget=10**6, degrade=False)
            ),
        )
        solver.factorize(1.0)
        before = dict(solver.__dict__)
        budget = solver._deadline.budget
        budget.limit = budget.used  # the next node charge trips it
        with pytest.raises(DeadlineExceededError):
            solver.update(X_insert=clustered_inserts(X, 2))
        assert solver.__dict__ == before
        assert solver.n_points == len(X)

    def test_insert_keeps_transplanted_lambda_bump_events(self):
        gen = np.random.default_rng(0)
        X = gen.standard_normal((256, 3))
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=8.0),  # near rank-1: breaks plain LU
            tree_config=TreeConfig(leaf_size=32),
            skeleton_config=SkeletonConfig(rank=16),
            solver_config=SolverConfig(recovery=RecoveryConfig(enabled=True)),
        ).fit(X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solver.factorize(0.0)
            old = solver.factorization
            bumps = {
                e["node_id"]: e
                for e in old.recovery_events
                if e["stage"] == "lambda_bump"
            }
            assert bumps
            solver.update(X_insert=clustered_inserts(X, 2, scale=0.01))
        new = solver.factorization
        assert solver.last_update.mode == "incremental"
        transplanted = {
            nid
            for nid in bumps
            if nid in new.leaf_factors
            and new.leaf_factors[nid].lu[0] is old.leaf_factors[nid].lu[0]
        }
        assert transplanted
        kept = {e["node_id"]: e for e in new.recovery_events}
        in_health = {
            e.node_id for e in solver.health.events if e.stage == "lambda_bump"
        }
        for nid in transplanted:
            assert kept.get(nid) == bumps[nid]
            assert nid in in_health

    def test_insert_keeps_an_internal_bump_with_its_transplanted_leaves(
        self, X, monkeypatch
    ):
        """A breakdown at an internal node bumps every leaf below it.
        When an insert dirties that node but not all its leaves, the
        clean leaves keep their bump, so they must keep its event."""
        solver = small_solver(
            X, SolverConfig(recovery=RecoveryConfig(enabled=True))
        )
        parent = break_down_once_above(solver, 7, monkeypatch)
        solver.factorize(1.0)
        old = solver.factorization
        (event,) = [e for e in old.recovery_events if e["node_id"] == parent]

        solver.update(X_insert=clustered_inserts(X, 2, scale=0.01))
        new = solver.factorization
        assert solver.last_update.mode == "incremental"
        refactored = new.node_factors[parent].z_lu[0]
        assert refactored is not old.node_factors[parent].z_lu[0]
        kept = [
            leaf
            for leaf in (2 * parent, 2 * parent + 1)
            if new.leaf_factors[leaf].lu[0] is old.leaf_factors[leaf].lu[0]
        ]
        assert kept and all(new._lam_extra[leaf] > 0 for leaf in kept)
        assert new.recovery_events.count(event) == 1
        assert parent in {
            e.node_id for e in solver.health.events if e.stage == "lambda_bump"
        }

    def test_checkpointed_insert_writes_each_payload_once(
        self, X, tmp_path, monkeypatch
    ):
        """The refactorization writes the model, each level it factors
        and ``state``; the update itself writes nothing more.  Events
        carried in by transplanted nodes are no reason to write a level
        again."""
        solver = small_solver(
            X,
            SolverConfig(
                recovery=RecoveryConfig(enabled=True),
                resilience=ResilienceConfig(checkpoint_dir=str(tmp_path)),
            ),
        )
        break_down_once_above(solver, 7, monkeypatch)
        solver.factorize(1.0)
        assert solver.factorization.recovery_events
        save = Checkpoint.save
        names = []

        def counted(self, name, obj, meta=None):
            names.append(name)
            save(self, name, obj, meta)

        monkeypatch.setattr(Checkpoint, "save", counted)
        solver.update(X_insert=clustered_inserts(X, 2, scale=0.01))
        assert solver.last_update.mode == "incremental"
        assert solver.factorization.recovery_events
        levels = {
            Checkpoint.level_name(lv)
            for lv in solver.factorization.completed_levels
        }
        assert sorted(names) == sorted({"solver", "skeletons", "state"} | levels)

    def test_resumed_internal_bump_is_recorded_once(self, X, tmp_path, monkeypatch):
        """A node and every node below it carry its bump's event; a resume
        that transplants them all records the event once."""
        solver = small_solver(
            X,
            SolverConfig(
                recovery=RecoveryConfig(enabled=True),
                resilience=ResilienceConfig(checkpoint_dir=str(tmp_path)),
            ),
        )
        parent = break_down_once_above(solver, 7, monkeypatch)
        solver.factorize(1.0)
        (event,) = [
            e for e in solver.factorization.recovery_events if e["node_id"] == parent
        ]
        resumed = FastKernelSolver.resume(str(tmp_path))
        resumed.factorize(1.0)  # every node from the checkpointed levels
        fact = resumed.factorization
        assert fact.nodes_resumed == len(fact.leaf_factors) + len(fact.node_factors)
        assert [e for e in fact.recovery_events if e["node_id"] == parent] == [event]
        bumps = [e for e in resumed.health.events if e.stage == "lambda_bump"]
        assert [e.node_id for e in bumps].count(parent) == 1
        u = np.random.default_rng(16).standard_normal(solver.n_points)
        assert np.array_equal(resumed.solve(u), solver.solve(u))
