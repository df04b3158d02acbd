"""Incremental model updates without full rebuilds (docs/UPDATES.md).

:func:`apply_update` is the engine behind
:meth:`repro.FastKernelSolver.update`.  Three update families, cheapest
first:

* **lambda refit** — ``update(lam=...)`` on unchanged geometry reuses
  the tree, skeletons, and cached kernel blocks and redoes only the
  diagonal-shifted factorization (the paper's cross-validation loop);
  an unchanged ``lam`` against a live factorization is a no-op.
* **kernel sweep** — ``update(kernel_params={"bandwidth": h})`` keeps
  the skeleton *structure* frozen and least-squares refits the
  projections under the new kernel
  (:func:`repro.skeleton.update.refresh_projections`), then
  refactorizes.
* **point insertion/deletion** — ``update(X_insert=..., X_delete=...)``
  routes the changed points to their owning leaves through the recorded
  splitting hyperplanes (:mod:`repro.tree.update`), re-skeletonizes
  only the dirty subtrees (:mod:`repro.skeleton.update`), and
  refactorizes with clean-subtree factors transplanted verbatim
  (``factorize(resume_nodes=...)``).  Past
  ``SolverConfig.update_rebuild_threshold`` dirty fraction — or when
  the tree cannot route (no recorded hyperplanes, a leaf would empty) —
  it falls back to a full rebuild.

Every refactorization runs the facade's one factorization path
(``FastKernelSolver._factorize``), so recovery, the pipeline deadline,
per-level checkpoints and ``health`` behave as in ``factorize()``.  An
exception anywhere leaves the caller's solver as it was
(:meth:`~repro.FastKernelSolver.update` restores it and re-snapshots an
armed checkpoint directory).
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs import registry, span

__all__ = ["UpdateReport", "apply_update"]


@dataclass
class UpdateReport:
    """What an :func:`apply_update` call actually did.

    Attributes
    ----------
    mode:
        ``"noop"`` (unchanged lambda against a live factorization),
        ``"lambda"`` (diagonal-shift refit), ``"kernel"``
        (projection refresh), ``"incremental"`` (local repair), or
        ``"rebuild"`` (fallback full rebuild).
    nodes_total, nodes_refactored, nodes_reused:
        Below-frontier node counts for the (re)factorization:
        transplanted clean factors count as reused.  All zero when no
        factorization ran (solver had none and no ``lam`` was given).
    dirty_fraction:
        Fraction of the new point set owned by dirty leaves (geometry
        updates only).
    """

    mode: str
    lam: float | None = None
    n_inserted: int = 0
    n_deleted: int = 0
    dirty_leaves: int = 0
    dirty_fraction: float = 0.0
    nodes_total: int = 0
    nodes_refactored: int = 0
    nodes_reused: int = 0
    full_rebuild: bool = False
    seconds: float = 0.0
    kernel_params: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        """JSON-serializable digest (daemon wire protocol, CLI)."""
        return {
            "mode": self.mode,
            "lam": self.lam,
            "n_inserted": self.n_inserted,
            "n_deleted": self.n_deleted,
            "dirty_leaves": self.dirty_leaves,
            "dirty_fraction": self.dirty_fraction,
            "nodes_total": self.nodes_total,
            "nodes_refactored": self.nodes_refactored,
            "nodes_reused": self.nodes_reused,
            "full_rebuild": self.full_rebuild,
            "seconds": self.seconds,
            "kernel_params": dict(self.kernel_params),
        }


def _rebuild_kernel(kernel, params: dict):
    """A new kernel of the same type with ``params`` overriding.

    Every repro kernel stores each constructor parameter under an
    attribute of the same name, so the current values are recoverable
    generically; unknown names are a usage error.
    """
    sig = inspect.signature(type(kernel).__init__)
    names = [p for p in sig.parameters if p != "self"]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ConfigurationError(
            f"{type(kernel).__name__} has no parameter(s) {unknown}; "
            f"accepted: {names}"
        )
    kwargs = {}
    for name in names:
        if name in params:
            kwargs[name] = params[name]
        elif hasattr(kernel, name):
            kwargs[name] = getattr(kernel, name)
    return type(kernel)(**kwargs)


def _checkpoint_after(solver) -> None:
    """Snapshot an updated solver that holds no factorization, when armed.

    A refactorization ran the facade's path, which already wrote the
    ``solver`` and ``skeletons`` payloads, each level it factored and
    ``state`` (under a fresh manifest when the fingerprint changed with
    the data or kernel); an update that did not refactorize re-snapshots
    the whole solver.
    """
    if (
        solver.solver_config.resilience.checkpoint_dir is not None
        and solver.factorization is None
    ):
        solver.save_checkpoint()


def apply_update(
    solver,
    *,
    X_insert: np.ndarray | None = None,
    X_delete: np.ndarray | None = None,
    lam: float | None = None,
    kernel_params: dict | None = None,
) -> UpdateReport:
    """Apply an incremental update to a fitted ``FastKernelSolver``.

    See :meth:`repro.FastKernelSolver.update` for the public contract.
    """
    from repro.core.solver import FastKernelSolver  # noqa: F401 (doc link)
    from repro.hmatrix.hmatrix import HMatrix
    from repro.skeleton.update import (
        dirty_node_ids,
        refresh_projections,
        update_skeletons,
    )
    from repro.solvers.factorization import HierarchicalFactorization
    from repro.tree.update import apply_point_updates

    geometry = X_insert is not None or X_delete is not None
    if not geometry and lam is None and not kernel_params:
        raise ConfigurationError(
            "update() needs X_insert/X_delete, lam, or kernel_params"
        )
    if kernel_params and geometry:
        raise ConfigurationError(
            "kernel_params cannot be combined with point insertion/"
            "deletion; apply them in two update() calls"
        )

    old_fact = solver.factorization
    old_lam = (
        old_fact.lam if isinstance(old_fact, HierarchicalFactorization) else None
    )
    target_lam = float(lam) if lam is not None else old_lam
    t0 = time.perf_counter()

    # ------------------------------------------------------------- lambda
    if not geometry and not kernel_params:
        if old_lam is not None and target_lam == old_lam:
            return UpdateReport(mode="noop", lam=target_lam)
        with span("update", attrs={"mode": "lambda", "lam": target_lam}):
            # full facade semantics (recovery ladder, resilience,
            # checkpointed levels) — nothing to transplant, the whole
            # win is the reused skeletons and cached kernel blocks.
            solver.factorize(target_lam)
            total = len(solver.hmatrix._nodes_at_or_below_frontier())
        registry().counter("update.lambda_refits").inc()
        _checkpoint_after(solver)
        return UpdateReport(
            mode="lambda",
            lam=target_lam,
            nodes_total=total,
            nodes_refactored=total,
            seconds=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------- kernel
    if kernel_params:
        with span("update", attrs={"mode": "kernel"}):
            new_kernel = _rebuild_kernel(solver.kernel, kernel_params)
            h = solver.hmatrix
            with span("update.skeletonize", attrs={"mode": "refresh"}):
                sset = refresh_projections(
                    h.skeletons, h.tree, new_kernel, solver.skeleton_config
                )
            new_h = HMatrix(
                h.tree,
                new_kernel,
                sset,
                summation=solver.solver_config.summation,
            )
            solver.kernel = new_kernel
            solver._X_norms = new_kernel.prepare_norms(solver._X)
            solver.hmatrix = new_h
            solver.factorization = None
            total = refac = 0
            if target_lam is not None:
                with span("update.factorize", attrs={"lam": target_lam}):
                    solver._factorize(target_lam)
                total = refac = len(new_h._nodes_at_or_below_frontier())
        registry().counter("update.kernel_refits").inc()
        _checkpoint_after(solver)
        return UpdateReport(
            mode="kernel",
            lam=target_lam,
            nodes_total=total,
            nodes_refactored=refac,
            seconds=time.perf_counter() - t0,
            kernel_params=dict(kernel_params),
        )

    # ----------------------------------------------------------- geometry
    n_old = solver._X.shape[0]
    delete_users = None
    if X_delete is not None:
        delete_users = np.unique(np.asarray(X_delete, dtype=np.intp))
        if len(delete_users) and (
            delete_users[0] < 0 or delete_users[-1] >= n_old
        ):
            raise ConfigurationError(
                f"X_delete indices out of range [0, {n_old})"
            )
    if X_insert is not None:
        X_insert = np.ascontiguousarray(X_insert, dtype=np.float64)

    def _new_X() -> np.ndarray:
        X = solver._X
        if delete_users is not None and len(delete_users):
            X = np.delete(X, delete_users, axis=0)
        if X_insert is not None and X_insert.shape[0]:
            X = np.concatenate([X, X_insert], axis=0)
        return np.ascontiguousarray(X)

    def _full_rebuild(report: UpdateReport) -> UpdateReport:
        with span("update", attrs={"mode": "rebuild"}):
            solver.fit(_new_X())
            if target_lam is not None:
                solver.factorize(target_lam)
                total = len(solver.hmatrix._nodes_at_or_below_frontier())
                report.nodes_total = total
                report.nodes_refactored = total
        registry().counter("update.full_rebuilds").inc()
        registry().counter("update.nodes_refactored").inc(
            report.nodes_refactored
        )
        report.mode = "rebuild"
        report.full_rebuild = True
        report.seconds = time.perf_counter() - t0
        return report

    report = UpdateReport(
        mode="incremental",
        lam=target_lam,
        n_inserted=0 if X_insert is None else int(X_insert.shape[0]),
        n_deleted=0 if delete_users is None else int(len(delete_users)),
    )

    tree = solver.hmatrix.tree
    try:
        delete_positions = (
            tree.iperm[delete_users] if delete_users is not None else None
        )
        with span("update.tree", attrs={"n_insert": report.n_inserted,
                                        "n_delete": report.n_deleted}):
            tu = apply_point_updates(
                tree, X_insert=X_insert, delete_positions=delete_positions
            )
    except ConfigurationError:
        # unroutable tree / emptied leaf / total deletion — rebuild.
        return _full_rebuild(report)

    report.dirty_leaves = len(tu.dirty_leaves)
    report.dirty_fraction = tu.dirty_fraction
    if tu.dirty_fraction > solver.solver_config.update_rebuild_threshold:
        return _full_rebuild(report)

    with span(
        "update",
        attrs={
            "mode": "incremental",
            "dirty_leaves": report.dirty_leaves,
            "dirty_fraction": report.dirty_fraction,
        },
    ):
        dirty = dirty_node_ids(tu.dirty_leaves)
        h = solver.hmatrix
        with span("update.skeletonize", attrs={"dirty_nodes": len(dirty)}):
            sset = update_skeletons(
                h.skeletons,
                tu.tree,
                solver.kernel,
                solver.skeleton_config,
                tu.pos_map,
                dirty,
            )
        new_h = HMatrix(
            tu.tree,
            solver.kernel,
            sset,
            summation=solver.solver_config.summation,
        )

        # clean-subtree factor transplant: valid only against the same
        # lambda and a full-storage direct factorization (low storage
        # drops the internal P^ a dirty parent of a clean child needs).
        resume: dict[int, dict] = {}
        if (
            isinstance(old_fact, HierarchicalFactorization)
            and target_lam is not None
            and old_fact.lam == target_lam
            and solver.solver_config.storage != "low"
        ):
            have = old_fact.leaf_factors.keys() | old_fact.node_factors.keys()
            for node in new_h._nodes_at_or_below_frontier():
                if node.id not in dirty and node.id in have:
                    resume[node.id] = old_fact.export_node_payload(node.id)

        X_new = _new_X()
        solver._X = X_new
        solver._X_norms = solver.kernel.prepare_norms(X_new)
        solver.hmatrix = new_h
        solver.factorization = None
        if target_lam is not None:
            with span(
                "update.factorize",
                attrs={"lam": target_lam, "resumed": len(resume)},
            ):
                solver._factorize(target_lam, resume_nodes=resume)
            report.nodes_total = len(new_h._nodes_at_or_below_frontier())
            report.nodes_reused = getattr(solver.factorization, "nodes_resumed", 0)
            report.nodes_refactored = report.nodes_total - report.nodes_reused

    registry().counter("update.points_inserted").inc(report.n_inserted)
    registry().counter("update.points_deleted").inc(report.n_deleted)
    registry().counter("update.dirty_leaves").inc(report.dirty_leaves)
    registry().counter("update.nodes_refactored").inc(report.nodes_refactored)
    registry().counter("update.nodes_reused").inc(report.nodes_reused)
    _checkpoint_after(solver)
    report.seconds = time.perf_counter() - t0
    return report
