"""Distributed hybrid solver (Algorithms II.6-II.8).

The paper's hybrid method for level-restricted problems, distributed:
each rank owns the subtree at level ``log p`` containing its point
slice and factorizes it up to the skeletonization frontier (which must
lie at or below level ``log p``); the coalesced reduced system
``(I + V W^)`` is solved by GMRES with *matrix-free distributed*
operators:

* ``MatVecW`` (Algorithm II.7) is embarrassingly local — every frontier
  node lives inside one rank's subtree, so ``W^ y`` touches only local
  ``P^`` blocks;
* ``MatVecV`` (Algorithm II.8) partitions by *columns*: each rank
  multiplies every frontier skeleton-row block against its own point
  slice and the results are AllReduce-summed, exactly the reduction the
  paper describes ("an AllReduce is required at the end such that all
  MPI ranks get the same output").

GMRES itself runs redundantly on every rank (identical deterministic
arithmetic on identical reduced vectors), the standard practice for
small reduced systems.  A ``(N, k)`` panel is one program running one
lockstep GMRES (one AllReduce of an ``(S, k)`` block per iteration)
where ``k`` single solves would be ``k`` programs.  Every program runs
on the ranks that factorized, which keep their state resident
(:class:`~repro.parallel.dist_solver._LiveRanks`).  The ranks report
nothing themselves: rank 0's convergence outcome travels back with its
piece and the caller warns once per unconverged column, as the serial
solve does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import SolverConfig
from repro.exceptions import ConfigurationError, ConvergenceWarning
from repro.hmatrix.hmatrix import HMatrix
from repro.kernels.summation import KernelSummation, SummationMethod
from repro.obs import emit_warning
from repro.parallel.dist_solver import (
    _BoundState,
    _launch_factorization,
    _LiveRanks,
    _resident_hmatrix,
    _resident_state,
)
from repro.parallel.vmpi import CommStats, Communicator, FaultPlan
from repro.solvers.factorization import HierarchicalFactorization
from repro.solvers.gmres import gmres_unreported
from repro.solvers.recovery import SolverHealth
from repro.tree.node import Node
from repro.util.validation import check_vector

__all__ = ["DistributedHybrid", "distributed_hybrid_factorize", "distributed_hybrid_solve"]


@dataclass
class _HybridRankState(_BoundState):
    """Per-rank retained state for the distributed hybrid method."""

    rank: int
    subtree_root_id: int
    lo: int
    hi: int
    local: HierarchicalFactorization
    #: frontier nodes inside my subtree, left to right.
    my_frontier: list[Node]
    #: all frontier nodes (metadata shared via allgather).
    slices: dict[int, slice] = field(default_factory=dict)
    reduced_size: int = 0
    #: K_{S_all, x_mine}: every frontier skeleton row vs my point slice.
    vcols: KernelSummation | None = None
    #: K_{f~, f ^ mine}: own-block corrections for my frontier nodes.
    own_blocks: dict[int, KernelSummation] = field(default_factory=dict)


class DistributedHybrid(_LiveRanks):
    """Handle returned by :func:`distributed_hybrid_factorize`.

    Its ranks keep the H-matrix and their states resident until
    :meth:`close`, or until a refit over the same H-matrix takes them
    over (:class:`~repro.parallel.dist_solver._LiveRanks`).
    """


def _hybrid_factor_worker(
    comm: Communicator, h: HMatrix | None, lam: float, config: SolverConfig
) -> _HybridRankState:
    h = _resident_hmatrix(comm, h)
    tree = h.tree
    n_levels = int(np.log2(comm.size))
    subtree_root = tree.node((1 << n_levels) + comm.rank)

    my_frontier = [
        f for f in h.frontier if subtree_root.lo <= f.lo and f.hi <= subtree_root.hi
    ]
    covered = sum(f.size for f in my_frontier)
    if covered != subtree_root.size:
        raise ConfigurationError(
            "distributed hybrid requires the skeletonization frontier at "
            f"or below level log2(p) = {n_levels}; rank {comm.rank}'s "
            "subtree is not fully covered by frontier nodes"
        )

    # local partial factorization: frontier subtrees inside my slice.
    local = HierarchicalFactorization(h, lam, config)
    local._factor_subtrees(my_frontier)
    local._factored = True

    state = _HybridRankState(
        rank=comm.rank,
        subtree_root_id=subtree_root.id,
        lo=subtree_root.lo,
        hi=subtree_root.hi,
        local=local,
        my_frontier=my_frontier,
    )

    # share frontier skeletons: (node_id, skeleton point coords, rank s).
    mine = [
        (f.id, h.tree.points[h.skeletons[f.id].skeleton], h.skeletons[f.id].rank)
        for f in my_frontier
    ]
    everyone = comm.allgather(mine)
    flat: list[tuple[int, np.ndarray, int]] = [
        item for group in everyone for item in group
    ]
    flat.sort(key=lambda item: h.tree.node(item[0]).lo)

    offset = 0
    skel_stacks = []
    for nid, coords, s in flat:
        state.slices[nid] = slice(offset, offset + s)
        skel_stacks.append(coords)
        offset += s
    state.reduced_size = offset

    my_points = tree.points[subtree_root.lo : subtree_root.hi]
    method = SummationMethod(config.summation)
    state.vcols = KernelSummation(
        h.kernel,
        np.vstack(skel_stacks),
        my_points,
        method,
        norms_b=h.norms.range(subtree_root.lo, subtree_root.hi),
    )
    for f in my_frontier:
        sk = h.skeletons[f.id]
        state.own_blocks[f.id] = KernelSummation(
            h.kernel,
            h.tree.points[sk.skeleton],
            h.tree.node_points(f),
            method,
            norms_a=h.norms.gather(sk.skeleton),
            norms_b=h.norms.node(f),
        )
    comm.resident["state"] = state
    return state


def _apply_v_dist(
    comm: Communicator, state: _HybridRankState, x_mine: np.ndarray
) -> np.ndarray:
    """Algorithm II.8: V x with column-partitioned blocks + AllReduce."""
    t_local = state.vcols.matvec(x_mine)
    # remove the diagonal (own-node) contributions for my frontier nodes.
    for f in state.my_frontier:
        t_local[state.slices[f.id]] -= state.own_blocks[f.id].matvec(
            x_mine[f.lo - state.lo : f.hi - state.lo]
        )
    return comm.allreduce(t_local)


def _apply_what_local(state: _HybridRankState, y: np.ndarray) -> np.ndarray:
    """Algorithm II.7: W^ y restricted to my point slice (purely local)."""
    w = np.zeros((state.hi - state.lo,) + y.shape[1:])
    for f in state.my_frontier:
        phat = state.local._phat(f)
        w[f.lo - state.lo : f.hi - state.lo] = phat @ y[state.slices[f.id]]
    return w


def _hybrid_solve_worker(
    comm: Communicator, u: np.ndarray
) -> tuple[np.ndarray, list[tuple[bool, int, float]]]:
    """My piece of the solution and, per column, GMRES's convergence facts
    ``(converged, iterations, final relative residual)``."""
    state: _HybridRankState = _resident_state(comm)
    u_mine = u[state.lo : state.hi]

    # D^{-1} u on my frontier subtrees (DistSolve's local case).
    x0 = np.empty_like(u_mine)
    for f in state.my_frontier:
        x0[f.lo - state.lo : f.hi - state.lo] = state.local.solve_subtree(
            f, u_mine[f.lo - state.lo : f.hi - state.lo]
        )

    t = _apply_v_dist(comm, state, x0)

    # redundant GMRES on the reduced system; the operator's only
    # communication is the AllReduce inside MatVecV, entered in lockstep
    # by every rank.
    def reduced_matvec(y: np.ndarray) -> np.ndarray:
        w_mine = _apply_what_local(state, y)
        return y + _apply_v_dist(comm, state, w_mine)

    results = gmres_unreported(
        reduced_matvec, t.reshape(len(t), -1), state.local.config.gmres
    )
    y = np.stack([res.x for res in results], axis=1).reshape(t.shape)
    facts = [(res.converged, res.n_iters, res.final_residual) for res in results]
    return x0 - _apply_what_local(state, y), facts


def distributed_hybrid_factorize(
    hmatrix: HMatrix,
    lam: float = 0.0,
    n_ranks: int = 2,
    config: SolverConfig | None = None,
    fault_plan: FaultPlan | None = None,
    backend: str | None = None,
) -> DistributedHybrid:
    """Distributed partial factorization up to the frontier.

    Requires ``n_ranks`` a power of two and the frontier at or below
    tree level ``log2(n_ranks)``, so every frontier subtree is
    rank-local (the paper's Figure 2 layout).

    ``backend`` selects the vMPI execution backend (``None`` defers to
    ``config.backend`` and the ``REPRO_VMPI_BACKEND`` environment).  A
    refit over the same ``hmatrix`` object runs on the live world of its
    latest handle and takes it over, as in
    :func:`~repro.parallel.dist_solver.distributed_factorize`.  Elastic
    repartitioning is a full-telescoping feature — the hybrid's
    frontier ownership does not halve cleanly — so permanent rank loss
    here stays fatal.
    """
    config = config or SolverConfig(method="hybrid")
    if config.method != "hybrid":
        raise ConfigurationError(
            f"distributed hybrid requires method='hybrid'; got {config.method!r}"
        )
    world, states, stats = _launch_factorization(
        hmatrix,
        n_ranks,
        backend if backend is not None else config.backend,
        _hybrid_factor_worker,
        lam,
        config,
        fault_plan=fault_plan,
    )
    health = SolverHealth(final_path="distributed-hybrid")
    health.ingest_comm(stats)
    dist = DistributedHybrid(
        hmatrix=hmatrix,
        lam=lam,
        n_ranks=n_ranks,
        config=config,
        states=states,
        factor_stats=stats,
        health=health,
        backend=world.backend,
    )
    dist._keep(world)
    return dist


def distributed_hybrid_solve(
    dist: DistributedHybrid,
    u: np.ndarray,
    fault_plan: FaultPlan | None = None,
) -> tuple[np.ndarray, CommStats]:
    """HybridSolve (Algorithm II.6) across the virtual ranks.

    ``u`` may be (N,) or (N, k); a panel is one lockstep GMRES solve.
    It runs on the ranks that factorized, on the backend they ran on.

    Warns
    -----
    ConvergenceWarning
        Once per column whose GMRES stopped short of ``config.gmres.tol``.
    """
    u = check_vector(u, dist.hmatrix.n_points)
    outs, stats = dist._run(_hybrid_solve_worker, u, fault_plan=fault_plan)
    dist.health.ingest_comm(stats)
    tol = dist.config.gmres.tol
    for column, (converged, n_iters, residual) in enumerate(outs[0][1]):
        if not converged:
            emit_warning(
                "gmres.unconverged",
                f"distributed hybrid GMRES stopped column {column} after "
                f"{n_iters} iterations with relative residual {residual:.3e} "
                f"(tol {tol:.1e})",
                ConvergenceWarning,
                stacklevel=2,
            )
    return np.concatenate([piece for piece, _facts in outs]), stats
