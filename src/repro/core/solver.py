"""FastKernelSolver: the one-stop public API.

Mirrors the paper's pipeline — tree construction, skeletonization
(Algorithm II.1), factorization (Algorithm II.2 / II.4 / hybrid II.6),
solve (Algorithm II.3 / II.5) — behind a scikit-learn-flavoured
interface, handling the tree permutation so callers work entirely in
their own point order::

    solver = FastKernelSolver(GaussianKernel(bandwidth=0.5))
    solver.fit(X)                      # tree + skeletons (ASKIT)
    solver.factorize(lam=1.0)          # lambda I + K~  =  L U ...
    w = solver.solve(u)                # (lambda I + K~)^{-1} u
    v = solver.matvec(u)               # K~ u (fast treecode product)

``factorize`` may be called repeatedly with different ``lam`` — the
cross-validation loop the paper optimizes for — without re-running the
(shared) skeletonization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.config import SkeletonConfig, SolverConfig, TreeConfig
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    NotFactorizedError,
    NotSkeletonizedError,
)
from repro.hmatrix.errors import estimate_matrix_error
from repro.hmatrix.hmatrix import HMatrix, build_hmatrix
from repro.kernels.base import Kernel
from repro.kernels.gsks import gsks_matvec
from repro.resilience import (
    Checkpoint,
    CoarsenPolicy,
    Deadline,
    WorkBudget,
    config_fingerprint,
    deadline_scope,
)
from repro.solvers.factorization import HierarchicalFactorization, factorize
from repro.solvers.recovery import (
    IterativeFallback,
    SolverHealth,
    _ladder,
    robust_solve,
)
from repro.util.timing import StageTimes, Timer
from repro.util.validation import check_points, check_vector

__all__ = ["FastKernelSolver", "SolveInfo"]


@dataclass
class SolveInfo:
    """Diagnostics returned by :meth:`FastKernelSolver.solve_with_info`."""

    residual: float
    gmres_iterations: int
    stable: bool
    #: recovery-ladder report (None unless solver_config.recovery.enabled).
    health: SolverHealth | None = None


class FastKernelSolver:
    """Fast direct solver for ``(lambda I + K) w = u`` on N points.

    Parameters
    ----------
    kernel:
        A :class:`repro.kernels.Kernel` (e.g. Gaussian with the
        bandwidth ``h``).
    tree_config, skeleton_config, solver_config:
        See :mod:`repro.config`.  The solver method ("nlogn",
        "nlog2n", "hybrid") and the summation strategy live in
        ``solver_config``.

    Attributes
    ----------
    times:
        Stage wall-clock accumulator ("tree", "skeletonize",
        "factorize", "solve") — the paper's ASKIT/Tf/Ts columns.
    """

    def __init__(
        self,
        kernel: Kernel,
        *,
        tree_config: TreeConfig | None = None,
        skeleton_config: SkeletonConfig | None = None,
        solver_config: SolverConfig | None = None,
    ) -> None:
        self.kernel = kernel
        self.tree_config = tree_config or TreeConfig()
        self.skeleton_config = skeleton_config or SkeletonConfig()
        self.solver_config = solver_config or SolverConfig()
        self.hmatrix: HMatrix | None = None
        self.factorization: HierarchicalFactorization | IterativeFallback | None = None
        #: report of the last factorize/solve cycle (populated only when
        #: ``solver_config`` arms recovery or resilience).
        self.health: SolverHealth | None = None
        self.times = StageTimes()
        #: metric-attribution label (see :meth:`scope_telemetry`).  When
        #: set, every series this solver's work emits carries a
        #: ``solver=<label>`` label and :meth:`telemetry` reports only
        #: this solver's series — two resident solvers in one process no
        #: longer interleave (docs/OBSERVABILITY.md).
        self.telemetry_label: str | None = None
        #: report of the last :meth:`update` call (None before any).
        self.last_update = None
        self._X: np.ndarray | None = None
        self._X_norms: np.ndarray | None = None
        #: pipeline deadline (created at fit() from solver_config.resilience;
        #: shared across fit/factorize/solve — the budget covers the whole
        #: pipeline, not each call).
        self._deadline: Deadline | None = None

    # ------------------------------------------------------------------
    # resilience plumbing
    # ------------------------------------------------------------------
    def _make_deadline(self) -> Deadline | None:
        res = self.solver_config.resilience
        if res.deadline_seconds is None and res.work_budget is None:
            return None
        budget = WorkBudget(res.work_budget) if res.work_budget is not None else None
        return Deadline(res.deadline_seconds, budget=budget)

    def _coarsen_policy(self) -> CoarsenPolicy | None:
        if self._deadline is None or not self.solver_config.resilience.degrade:
            return None
        return CoarsenPolicy()

    def _fingerprint(self) -> str:
        return config_fingerprint(
            self._X, self.kernel, self.tree_config, self.skeleton_config
        )

    def fingerprint(self) -> str:
        """The ``repro.checkpoint/v1`` config fingerprint of this solver.

        sha256 over (data, kernel, tree/skeleton configs) — the identity
        under which checkpoints are written and the serving registry
        keys resident models.  Requires :meth:`fit`.
        """
        self._require_fitted()
        return self._fingerprint()

    # ------------------------------------------------------------------
    # per-solver telemetry attribution (docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------
    def scope_telemetry(self, label: str | None = None) -> str:
        """Attribute this solver's metric series to a per-solver label.

        Without attribution, every solver publishes into the same
        process-global series names, so two resident solvers in one
        daemon interleave each other's GMRES/recovery/stability
        counters.  After this call, work done through this facade runs
        under :func:`repro.obs.label_scope`\\ ``(solver=label)`` and
        :meth:`telemetry` returns only series attributed to this solver
        (plus the shared, unattributed ones).

        ``label`` defaults to the first 12 hex chars of
        :meth:`fingerprint` (requires :meth:`fit`); pass an explicit
        label to scope an unfitted solver.  Returns the label.
        """
        if label is None:
            label = self.fingerprint()[:12]
        self.telemetry_label = str(label)
        return self.telemetry_label

    def _metric_scope(self):
        from repro.obs import label_scope

        return label_scope(solver=self.telemetry_label)

    def _open_checkpoint(self, mode: str = "write") -> Checkpoint | None:
        res = self.solver_config.resilience
        if res.checkpoint_dir is None:
            return None
        return Checkpoint(
            res.checkpoint_dir, fingerprint=self._fingerprint(), mode=mode
        )

    def _solve_deadline(self) -> Deadline | None:
        """Deadline to install around a solve.

        An *expired* deadline is not reinstalled: degradation already
        chose a cheap path, and soft-stopping its GMRES at iteration
        zero would turn a degraded answer into a useless one.
        """
        dl = self._deadline
        return dl if dl is not None and not dl.expired else None

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        self._require_fitted()
        return self.hmatrix.n_points

    def _require_fitted(self) -> None:
        if self.hmatrix is None:
            raise NotSkeletonizedError("call fit(X) first")

    def _require_factorized(self) -> None:
        self._require_fitted()
        if self.factorization is None:
            raise NotFactorizedError("call factorize(lam) first")

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "FastKernelSolver":
        """Build the ball tree and skeletonize (the ASKIT phase).

        With ``solver_config.resilience`` armed, the pipeline deadline
        starts here, deadline pressure coarsens the rank tolerance
        (degradation rung 1), and — when a checkpoint directory is
        configured — the skeletonized state is snapshotted so a later
        kill resumes without redoing the ASKIT phase.
        """
        X = check_points(X)
        self._X = X
        self._X_norms = self.kernel.prepare_norms(X)
        self._deadline = self._make_deadline()
        with self._metric_scope(), Timer() as t, deadline_scope(self._deadline):
            self.hmatrix = build_hmatrix(
                X,
                self.kernel,
                tree_config=self.tree_config,
                skeleton_config=self.skeleton_config,
                summation=self.solver_config.summation,
                deadline=self._deadline,
                coarsen=self._coarsen_policy(),
            )
        self.times.add("tree+skeletonize", t.elapsed)
        self.factorization = None
        cp = self._open_checkpoint("write")
        if cp is not None:
            self._save_model(cp)
        return self

    def _save_model(self, cp: Checkpoint) -> None:
        """Write the ``solver`` and ``skeletons`` payloads :meth:`resume` needs."""
        cp.save(
            "solver",
            {
                "kernel": self.kernel,
                "tree_config": self.tree_config,
                "skeleton_config": self.skeleton_config,
                "solver_config": self.solver_config,
                "X": self._X,
            },
        )
        cp.save("skeletons", self.hmatrix)

    def factorize(self, lam: float = 0.0) -> "FastKernelSolver":
        """Factorize ``lambda I + K~`` with the configured method.

        With ``solver_config.recovery.enabled``, breakdown escalates
        through the fallback ladder (docs/ROBUSTNESS.md) instead of
        degrading silently; the report lands in :attr:`health`.

        With ``solver_config.resilience`` armed, node work is charged
        against the pipeline deadline, each completed level is
        checkpointed (and resumed, when the checkpoint directory holds
        matching levels), and running out of budget degrades through
        the frontier-freeze/iterative rungs instead of raising (see
        docs/ROBUSTNESS.md sections 6-8).
        """
        self._require_fitted()
        self._factorize(lam)
        return self

    def _factorize(self, lam: float, resume_nodes: dict | None = None) -> None:
        """The one path from the fitted H-matrix to :attr:`factorization`.

        :meth:`factorize` and the kernel and point refactorizations of
        :meth:`update` run it.  Plain :func:`factorize` when neither
        recovery nor resilience is armed (:attr:`health` is None);
        otherwise the fallback ladder under the pipeline deadline and
        checkpoint.  ``resume_nodes`` transplants prior node factors.
        """
        config = self.solver_config
        with self._metric_scope(), self.times.time("factorize"):
            if not (config.recovery.enabled or config.resilience.active):
                self.factorization = factorize(
                    self.hmatrix, lam, config, resume_nodes=resume_nodes
                )
                self.health = None
                return
            if self._deadline is None:
                self._deadline = self._make_deadline()
            cp = self._open_checkpoint("write")
            if cp is not None and not cp.has("skeletons"):
                # an update changed the model, so the directory starts
                # over: keep it resumable while the levels are written.
                self._save_model(cp)
            health = SolverHealth()
            for ev in self.hmatrix.skeletons.degradation_events:
                health.record(
                    ev.get("stage", "coarsen"),
                    **{k: v for k, v in ev.items() if k != "stage"},
                )
            with deadline_scope(self._deadline):
                self.factorization, self.health = _ladder(
                    self.hmatrix,
                    lam,
                    config,
                    health,
                    deadline=self._deadline,
                    resume_nodes=resume_nodes,
                    checkpoint=cp,
                )

    def update(
        self,
        *,
        X_insert: np.ndarray | None = None,
        X_delete: np.ndarray | None = None,
        lam: float | None = None,
        kernel_params: dict | None = None,
    ) -> "FastKernelSolver":
        """Incrementally update the fitted model (docs/UPDATES.md).

        * ``X_insert`` — (k, d) new points, routed to their owning
          leaves through the recorded splitting hyperplanes; only the
          dirty subtrees are re-skeletonized and refactorized, clean
          factors are transplanted verbatim.
        * ``X_delete`` — indices (in the caller's point order, i.e.
          rows of the ``X`` passed to :meth:`fit`) to remove.  After
          the update the surviving points keep their relative order and
          inserted points follow, so the new point order is
          ``concat(delete(X_old, X_delete), X_insert)``.
        * ``lam`` — refactorize at a new regularization, reusing the
          tree, skeletons, and cached kernel blocks (the paper's
          cross-validation loop).  An unchanged ``lam`` is a no-op.
        * ``kernel_params`` — e.g. ``{"bandwidth": 0.7}``: keep the
          skeleton structure frozen and least-squares refit the
          projections under the new kernel, then refactorize.  Cannot
          be combined with point changes in one call.

        Past ``solver_config.update_rebuild_threshold`` dirty fraction
        — or when the tree cannot route new points — the update falls
        back to a full rebuild; either way the solver ends consistent
        and (when previously factorized or ``lam`` is given) ready to
        :meth:`solve`.  Kernel and point updates refactorize through the
        same path as :meth:`factorize` (recovery, pipeline deadline,
        per-level checkpoints, :attr:`health`).  The structured
        :class:`~repro.core.update.UpdateReport` lands in
        :attr:`last_update`.  An exception leaves the solver unchanged
        and, when checkpointing is armed, re-snapshots it
        (:meth:`save_checkpoint`), since the refactorization may already
        have written the updated model into the directory.
        """
        self._require_fitted()
        from repro.core.update import apply_update

        saved = dict(self.__dict__)
        try:
            with self._metric_scope():
                self.last_update = apply_update(
                    self,
                    X_insert=X_insert,
                    X_delete=X_delete,
                    lam=lam,
                    kernel_params=kernel_params,
                )
        except BaseException:
            self.__dict__.update(saved)
            if self.solver_config.resilience.checkpoint_dir is not None:
                self.save_checkpoint()
            raise
        return self

    # ------------------------------------------------------------------
    def _to_tree(self, u: np.ndarray) -> np.ndarray:
        return u[self.hmatrix.tree.perm]

    def _from_tree(self, w: np.ndarray) -> np.ndarray:
        out = np.empty_like(w)
        out[self.hmatrix.tree.perm] = w
        return out

    def solve(self, u: np.ndarray) -> np.ndarray:
        """``w = (lambda I + K~)^{-1} u`` in the caller's point order.

        ``u`` may be (N,) or (N, k) for multiple right-hand sides.
        """
        self._require_factorized()
        u = check_vector(u, self.n_points)
        with self._metric_scope(), self.times.time("solve"), deadline_scope(
            self._solve_deadline()
        ):
            w = self.factorization.solve(self._to_tree(u))
        return self._from_tree(w)

    def solve_with_info(self, u: np.ndarray) -> tuple[np.ndarray, SolveInfo]:
        """Like :meth:`solve`, plus residual/iteration diagnostics.

        With recovery enabled, the solve is residual-verified and
        escalated through :func:`repro.solvers.recovery.robust_solve`
        when it misses ``recovery.solve_residual_limit``.
        """
        self._require_factorized()
        fact = self.factorization
        before = len(fact.reduced_iterations)
        # validate and permute once; both the recovery and plain paths
        # (and the residual below) reuse the same tree-order vectors.
        u_tree = self._to_tree(check_vector(u, self.n_points))
        with self._metric_scope(), self.times.time("solve"), deadline_scope(
            self._solve_deadline()
        ):
            if self.health is not None:
                w_tree, self.health = robust_solve(
                    fact, u_tree, self.solver_config, self.health
                )
            else:
                w_tree = fact.solve(u_tree)
        w = self._from_tree(w_tree)
        info = SolveInfo(
            residual=fact.residual(u_tree, w_tree),
            gmres_iterations=sum(fact.reduced_iterations[before:]),
            stable=fact.stability.is_stable,
            health=self.health,
        )
        return w, info

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Fast product ``K~ u`` (the ASKIT treecode evaluation)."""
        self._require_fitted()
        u = check_vector(u, self.n_points)
        return self._from_tree(self.hmatrix.matvec(self._to_tree(u)))

    def regularized_matvec(self, lam: float, u: np.ndarray) -> np.ndarray:
        """``(lambda I + K~) u`` in the caller's order."""
        return self.matvec(u) + lam * np.asarray(u, dtype=np.float64)

    def slogdet(self) -> tuple[float, float]:
        """Sign and log|det| of the factorized ``lambda I + K~``.

        O(N log N): the determinant telescopes out of the leaf and
        reduced-system LU factors (direct methods only).
        """
        self._require_factorized()
        return self.factorization.slogdet()

    def residual(self, u: np.ndarray, w: np.ndarray) -> float:
        """Relative residual ``||u - (lambda I + K~) w|| / ||u||``."""
        self._require_factorized()
        return self.factorization.residual(
            self._to_tree(check_vector(u, self.n_points)),
            self._to_tree(check_vector(w, self.n_points)),
        )

    def predict_matvec(self, X_new: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Out-of-sample products ``K(X_new, X_train) w`` (GSKS path)."""
        self._require_fitted()
        X_new = check_points(X_new, "X_new")
        w = check_vector(w, self.n_points, "w")
        return gsks_matvec(self.kernel, X_new, self._X, w, norms_b=self._X_norms)

    # ------------------------------------------------------------------
    # checkpoint/restart (repro.checkpoint/v1; docs/ROBUSTNESS.md §7)
    # ------------------------------------------------------------------
    def save_checkpoint(self, directory: str | None = None) -> str:
        """Snapshot the full solver state to a checkpoint directory.

        Writes the ``solver`` meta payload (data, kernel, configs), the
        skeletonized H-matrix, every completed factorization level, and
        — when factorized — a ``state`` payload carrying the whole
        factorization-like object, :attr:`health`, and stage times, so
        :meth:`resume` reproduces this solver exactly (recovery/
        degradation history included).

        Returns the checkpoint directory path.
        """
        self._require_fitted()
        directory = directory or self.solver_config.resilience.checkpoint_dir
        if directory is None:
            raise ConfigurationError(
                "no checkpoint directory: pass one or set "
                "solver_config.resilience.checkpoint_dir"
            )
        cp = Checkpoint(directory, fingerprint=self._fingerprint(), mode="write")
        self._save_model(cp)
        fact = self.factorization
        if isinstance(fact, HierarchicalFactorization):
            for lv in sorted(fact.completed_levels, reverse=True):
                cp.save_level(
                    lv,
                    fact.export_level_payload(lv),
                    lam=fact.lam,
                    method=fact.config.method,
                )
        if fact is not None:
            self._save_state(cp)
        return cp.path

    def _save_state(self, cp: Checkpoint) -> None:
        """Write the ``state`` payload: factorization, health and times."""
        cp.save(
            "state",
            {
                "factorization": self.factorization,
                "health": self.health,
                "times": self.times,
                "lam": self.factorization.lam,
            },
        )

    @classmethod
    def resume(cls, directory: str) -> "FastKernelSolver":
        """Rebuild a solver from a ``repro.checkpoint/v1`` directory.

        Restores data, configs, and the skeletonized H-matrix; when a
        full ``state`` snapshot exists (:meth:`save_checkpoint` after
        factorizing) the factorization, health report, and stage times
        come back too, and the solver solves identically to the one
        that was saved.  Otherwise call :meth:`factorize` — it resumes
        from the last completed checkpointed level instead of from
        scratch.

        Raises
        ------
        CheckpointError
            On a missing/corrupted checkpoint, or when the manifest's
            fingerprint does not match the payloads it indexes.
        """
        cp = Checkpoint(directory, mode="resume")
        meta = cp.load("solver")
        solver = cls(
            meta["kernel"],
            tree_config=meta["tree_config"],
            skeleton_config=meta["skeleton_config"],
            solver_config=meta["solver_config"],
        )
        res = solver.solver_config.resilience
        if res.checkpoint_dir != cp.path:
            solver.solver_config = replace(
                solver.solver_config, resilience=replace(res, checkpoint_dir=cp.path)
            )
        solver._X = check_points(meta["X"])
        solver._X_norms = solver.kernel.prepare_norms(solver._X)
        expect = solver._fingerprint()
        found = cp.manifest.get("fingerprint")
        if found != expect:
            raise CheckpointError(
                f"checkpoint at {cp.path} fingerprint {found!r} does not "
                "match the configuration stored in its own solver payload; "
                "refusing to resume from inconsistent state"
            )
        solver.hmatrix = cp.load("skeletons")
        if solver.hmatrix.n_points != solver._X.shape[0]:
            raise CheckpointError(
                f"checkpoint at {cp.path} holds skeletons for "
                f"{solver.hmatrix.n_points} points but data for "
                f"{solver._X.shape[0]}; the model was updated without "
                "re-checkpointing — refusing to resume"
            )
        if cp.has("state"):
            state = cp.load("state")
            fact = state["factorization"]
            # the payload pickles its own H-matrix copy: read blocks
            # through the solver's namespace instead, at the frontier the
            # factorization was built on (the fallback ladder moves it).
            fact.hmatrix = solver.hmatrix.with_frontier(fact.hmatrix.frontier)
            solver.factorization = fact
            solver.health = state["health"]
            if state.get("times") is not None:
                solver.times = state["times"]
        solver._deadline = solver._make_deadline()
        return solver

    # ------------------------------------------------------------------
    def approximation_error(self, n_probes: int = 8, seed: int | None = 0) -> float:
        """Randomized estimate of ``||K - K~|| / ||K||``."""
        self._require_fitted()
        return estimate_matrix_error(self.hmatrix, n_probes=n_probes, seed=seed)

    def diagnostics(self) -> dict:
        """Structured summary: ranks, frontier, storage, stability."""
        self._require_fitted()
        h = self.hmatrix
        ranks = [sk.rank for sk in h.skeletons.skeletons.values()]
        out = {
            "n_points": h.n_points,
            "depth": h.tree.depth,
            "frontier_size": len(h.frontier),
            "frontier_level": h.frontier[0].level if h.frontier else 0,
            "max_rank": max(ranks) if ranks else 0,
            "mean_rank": float(np.mean(ranks)) if ranks else 0.0,
            "reduced_size": h.skeletons.total_frontier_rank() if ranks else 0,
            "hmatrix_storage_words": h.storage_words(),
        }
        cache = h.cache_stats()
        out["cache_hit_rate"] = cache.hit_rate
        out["cache_peak_words"] = cache.peak_words
        out["cache_evictions"] = cache.evictions
        if self.factorization is not None:
            out["factor_storage_words"] = self.factorization.storage_words()
            out["reduced_operator"] = self.factorization.reduced_operator
            out["min_rcond"] = self.factorization.stability.min_rcond
            out["stable"] = self.factorization.stability.is_stable
        return out

    def telemetry(self) -> dict:
        """The process telemetry blob plus this solver's stage times.

        One JSON-serializable answer to "what did this solve actually
        do?": the span tree (tree build, skeletonize, factorize, solve,
        per-level factorization), every metric series (block cache,
        fabric faults, GMRES, recovery, warnings), this solver's stage
        accumulators, and the recovery-health digest when armed.  See
        docs/OBSERVABILITY.md for the schema.

        When :meth:`scope_telemetry` has attributed this solver, the
        metric section contains only this solver's series plus the
        shared unattributed ones — two resident solvers in one process
        report disjoint, uncontaminated blobs.
        """
        from repro.obs import telemetry_snapshot

        if self.hmatrix is not None:
            self.hmatrix.cache.publish()
        scope = (
            {"solver": self.telemetry_label}
            if self.telemetry_label is not None
            else None
        )
        blob = telemetry_snapshot(scope=scope)
        blob["stages"] = dict(self.times.stages)
        if self.health is not None:
            blob["health"] = self.health.summary()
        res = self.solver_config.resilience
        if res.active:
            resilience: dict = {
                "checkpoint_dir": res.checkpoint_dir,
                "degrade": res.degrade,
            }
            if self._deadline is not None:
                resilience["deadline"] = self._deadline.summary()
            if self.hmatrix is not None:
                resilience["coarsen_events"] = list(
                    self.hmatrix.skeletons.degradation_events
                )
            if isinstance(self.factorization, HierarchicalFactorization):
                resilience["completed_levels"] = sorted(
                    self.factorization.completed_levels
                )
            blob["resilience"] = resilience
        return blob
