"""Distributed factorization and solve (Algorithms II.4 and II.5).

Ownership follows the paper's Figure 1: with ``p = 2^q`` ranks, rank
``i`` owns the subtree rooted at the i-th node of level ``log p`` and
factorizes it with the *serial* Algorithm II.2.  Distributed nodes
(levels above ``log p``) are processed with the recursive communicator
scheme: the node's communicator splits into halves (the children's
communicators); rank {0} owns the left child's skeleton and the node's
reduced system ``Z``; rank {q/2} owns the right child's skeleton.
Skeletons are exchanged with a SendRecv between {0} and {q/2} and then
broadcast within each half; the ``V W`` Gram blocks and the solve-phase
reductions are computed locally on each rank's point slice and reduced
up the halves — the message pattern of Algorithms II.4/II.5, which is
what the communication-counter tests measure.  Telescoping a node's
``P^`` (eq. 10 in push-through form) needs no reduction: {0} solves
``Z y = P_{[l~ r~] alpha~}`` and scatters ``y`` as a solve scatters its
coefficients, and each rank multiplies its rows of its child's ``P^``.

As in the paper, DistSolve runs on the ranks that ran DistFactorize:
the handle keeps the :class:`~repro.parallel.vmpi.World` its
factorization ran on, every rank keeps its :class:`_RankState` in its
resident store, and a solve ships only the right-hand side.  ``K~``
does not depend on lambda, so a refit over the same H-matrix runs on
those ranks too: they keep the H-matrix resident, and a refit ships
only lambda and the config.  A rank state crosses without the H-matrix
either way (:class:`_BoundState`): every holder has it already.

The factorization produced is bit-for-bit the serial one (the tests
assert agreement with :func:`repro.solvers.factorize` to roundoff).
"""

from __future__ import annotations

import contextlib
import copy
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.config import SolverConfig
from repro.exceptions import ConfigurationError, NotFactorizedError
from repro.hmatrix.hmatrix import HMatrix
from repro.kernels.summation import KernelSummation, SummationMethod
from repro.parallel.vmpi import (
    CommStats,
    Communicator,
    FaultPlan,
    World,
    resolve_backend,
    run_spmd,
)
from repro.solvers.factorization import HierarchicalFactorization
from repro.solvers.recovery import SolverHealth
from repro.util import lapack
from repro.util.flops import count_flops
from repro.util.validation import check_vector

__all__ = [
    "DistributedFactorization",
    "distributed_factorize",
    "distributed_solve",
]


@dataclass
class _LevelState:
    """Per-rank data for one distributed ancestor node."""

    node_id: int
    #: summation block K_{sib~, x_i}: sibling-child skeleton rows vs my points.
    ksib: KernelSummation
    #: my child's skeleton size (s_l on left-half ranks, s_r on right).
    s_mine: int
    #: LU of the node's Z — held only on comm rank {0} of this node.
    z_lu: tuple[np.ndarray, np.ndarray] | None = None
    s_l: int = 0
    s_r: int = 0


class _BoundState:
    """A rank state that pickles without the H-matrix its factors use.

    Whoever unpickles a state holds that H-matrix already: the caller
    that launched the factorization, the rank's resident store, an
    unpickled handle.  Each rebinds it with :meth:`bind`.
    """

    def __getstate__(self):
        local = copy.copy(self.local)
        local.hmatrix = None
        return {**self.__dict__, "local": local}

    def bind(self, hmatrix: HMatrix):
        self.local.hmatrix = hmatrix
        return self


@dataclass
class _RankState(_BoundState):
    """Everything one virtual rank retains after DistFactorize."""

    rank: int
    subtree_root_id: int
    lo: int
    hi: int
    local: HierarchicalFactorization
    #: levels[l] for distributed levels l = log p - 1 .. 0.
    levels: dict[int, _LevelState] = field(default_factory=dict)
    #: phat_chain[l] = my rows of P^ of my ancestor's child at level l
    #: (phat_chain[log p] is the local subtree root's P^).
    phat_chain: dict[int, np.ndarray] = field(default_factory=dict)
    #: flops this rank spent during factorization (strong-scaling model).
    factor_flops: int = 0


#: H-matrix -> weak reference to the latest distributed handle over it.
_latest: "weakref.WeakKeyDictionary[HMatrix, weakref.ref]" = weakref.WeakKeyDictionary()

#: stands in for the lock of a handle that never had a world (unpickled).
_NO_LOCK = contextlib.nullcontext()


@dataclass
class _LiveRanks:
    """A distributed handle whose rank states stay on the ranks that built them.

    The handle owns the :class:`~repro.parallel.vmpi.World` its
    factorization ran on.  Each rank keeps the H-matrix
    (``comm.resident["hmatrix"]``) and its state
    (``comm.resident["state"]``) in its resident store.  :meth:`close`
    ends the ranks; so does garbage collection of the handle, or
    interpreter exit.

    A later factorization over the same H-matrix object, with the same
    rank count and backend, takes the world over (:meth:`_hand_over`):
    from then on the newer handle owns it, and this one no longer has a
    world.  A handle without a live world — handed over, unpickled
    (pickling drops the world), or closed — runs on a one-program world
    seeded from ``states``; a rank respawned mid-solve is re-seeded
    from them too.
    """

    hmatrix: HMatrix
    lam: float
    n_ranks: int
    config: SolverConfig
    #: every rank's state, bound to ``hmatrix``.
    states: list
    factor_stats: CommStats
    #: fault/recovery history of the launch (chaos runs; always present).
    health: SolverHealth = field(default_factory=SolverHealth)
    #: execution backend the factorization ran on; every solve runs on it.
    backend: str = "thread"

    def _keep(self, world: World) -> None:
        """Own ``world``, the one the factorization ran on."""
        self._world = world
        self._lock = threading.Lock()
        self._close_world = weakref.finalize(self, world.close)
        _latest[self.hmatrix] = weakref.ref(self)

    def _hand_over(self, n_ranks: int, backend: str) -> World | None:
        """Give this handle's live world to a refit on ``n_ranks`` ``backend`` ranks.

        Waits for a program this handle is running on the world; any
        later program of this handle runs on a one-program world.
        """
        with self._lock:
            world = self.__dict__.get("_world")
            if world is None or world.closed:
                return None
            if (world.n_ranks, world.backend) != (n_ranks, backend):
                return None
            self._close_world.detach()
            del self._world, self._close_world
            return world

    def close(self) -> None:
        """End the ranks that hold this handle's states (idempotent)."""
        closer = self.__dict__.get("_close_world")
        if closer is not None:
            closer()

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in ("_world", "_lock", "_close_world"):
            state.pop(name, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        for rank_state in self.states:
            rank_state.bind(self.hmatrix)

    def _run(self, fn, *args, fault_plan=None):
        """``fn(comm, *args)`` on ranks whose store holds their state."""
        hmatrix, states = self.hmatrix, self.states

        def residents(rank: int) -> dict:
            return {"hmatrix": hmatrix, "state": states[rank]}

        with self.__dict__.get("_lock", _NO_LOCK):
            world = self.__dict__.get("_world")
            if world is not None and not world.closed:
                return world.run(fn, *args, fault_plan=fault_plan, residents=residents)
        return run_spmd(
            fn,
            self.n_ranks,
            *args,
            fault_plan=fault_plan,
            backend=self.backend,
            residents=residents,
        )


def _launch_factorization(
    hmatrix: HMatrix, n_ranks: int, backend: str | None, worker, *args, **run_kwargs
) -> tuple[World, list, CommStats]:
    """Run ``worker(comm, h, *args)`` on the world that will own the new handle.

    ``n_ranks`` must be a power of two and at most ``2^depth``.  The
    world is the live world of the latest handle over ``hmatrix`` when
    it has ``n_ranks`` ranks on ``backend``: its ranks hold the
    H-matrix already, so ``h`` ships as ``None`` and a rank process
    respawned meanwhile is seeded with it.  Otherwise a new world, whose
    ranks get the H-matrix in this first program's arguments, packed
    once for all of them.  The states come back bound to ``hmatrix``.
    """
    if n_ranks < 1 or (n_ranks & (n_ranks - 1)) != 0:
        raise ConfigurationError(f"n_ranks must be a power of two; got {n_ranks}")
    if n_ranks > (1 << hmatrix.tree.depth):
        raise ConfigurationError(
            f"n_ranks={n_ranks} exceeds the number of level-log2(p) "
            f"subtrees (depth {hmatrix.tree.depth})"
        )
    backend = resolve_backend(backend)
    ref = _latest.get(hmatrix)
    previous = ref() if ref is not None else None
    world = previous._hand_over(n_ranks, backend) if previous is not None else None
    if world is None:
        world = World(n_ranks, backend)
        states, stats = world.run(worker, hmatrix, *args, **run_kwargs)
    else:
        states, stats = world.run(
            worker, None, *args, residents=lambda rank: {"hmatrix": hmatrix}, **run_kwargs
        )
    return world, [state.bind(hmatrix) for state in states], stats


def _resident_hmatrix(comm: Communicator, h: HMatrix | None) -> HMatrix:
    """The rank's H-matrix: ``h`` on a world's first program, else the resident one.

    Also drops the rank's previous state, so a refit does not hold two.
    """
    if h is None:
        h = comm.resident["hmatrix"]
    else:
        comm.resident["hmatrix"] = h
    comm.resident.pop("state", None)
    return h


def _resident_state(comm: Communicator):
    """The rank's state, bound to its resident H-matrix (a seed ships none)."""
    return comm.resident["state"].bind(comm.resident["hmatrix"])


class DistributedFactorization(_LiveRanks):
    """Result of :func:`distributed_factorize`.

    Holds a copy of every rank's state; the ranks that computed them
    keep theirs resident, and :func:`distributed_solve` runs on those
    ranks until a refit over the same H-matrix takes them over
    (:class:`_LiveRanks`).  ``factor_stats`` records the fabric
    traffic of the factorization (paper: O(s^2 log^2 p) total).
    """

    @property
    def n_levels(self) -> int:
        return int(np.log2(self.n_ranks))


def _build_comm_chain(world: Communicator, n_levels: int) -> list[Communicator]:
    """comms[l] = communicator of my distributed ancestor at level l."""
    comms = [world]
    comm = world
    for l in range(1, n_levels + 1):
        bit = (world.rank >> (n_levels - l)) & 1
        comm = comm.split(color=bit)
        comms.append(comm)
    return comms


def _skeleton_points(h: HMatrix, node_id: int) -> tuple[np.ndarray, int]:
    sk = h.skeletons[node_id]
    return h.tree.points[sk.skeleton], sk.rank


def _factor_worker(
    comm: Communicator,
    h: HMatrix | None,
    lam: float,
    config: SolverConfig,
    checkpoint: bool = False,
    resume: dict | None = None,
) -> _RankState:
    from repro.util.flops import FlopCounter

    h = _resident_hmatrix(comm, h)
    with FlopCounter() as rank_counter:
        state = _factor_worker_body(
            comm, h, lam, config, checkpoint=checkpoint, resume=resume
        )
    state.factor_flops = rank_counter.flops
    comm.resident["state"] = state
    return state


def _factor_worker_body(
    comm: Communicator,
    h: HMatrix,
    lam: float,
    config: SolverConfig,
    checkpoint: bool = False,
    resume: dict | None = None,
) -> _RankState:
    tree = h.tree
    p = comm.size
    n_levels = int(np.log2(p))
    subtree_root = tree.node((1 << n_levels) + comm.rank)

    # ---- local phase: serial Algorithm II.2 on the owned subtree ------
    # ``resume`` carries checkpointed node factors from a previous,
    # wider launch that lost a rank: nodes a survivor already factored
    # are restored (keyed by node id) and only the lost subtree — plus
    # the newly-merged roots no old rank owned — is factorized fresh.
    local = HierarchicalFactorization(h, lam, config)
    local._factor_subtrees([subtree_root], resume_nodes=resume)
    local._factored = True

    state = _RankState(
        rank=comm.rank,
        subtree_root_id=subtree_root.id,
        lo=subtree_root.lo,
        hi=subtree_root.hi,
        local=local,
    )
    if checkpoint:
        # control-plane checkpoint at the local/distributed boundary:
        # if a rank is permanently lost during the distributed phase,
        # the supervisor hands these payloads to the repartitioned
        # relaunch, which resumes from here instead of replaying logs.
        comm.checkpoint(
            {
                "subtree_root_id": subtree_root.id,
                "nodes": [
                    local.export_node_payload(nid)
                    for nid in (*local.leaf_factors, *local.node_factors)
                ],
            }
        )
    if n_levels == 0:
        # p = 1: the "subtree" is the whole tree; build the root reduced
        # system locally through the serial path.
        local._build_reduced()
        return state

    if tree.is_leaf(subtree_root):
        phat_prev = local.leaf_factors[subtree_root.id].phat
    else:
        phat_prev = local.node_factors[subtree_root.id].phat
    if phat_prev is None:
        raise ConfigurationError(
            "distributed factorization requires every node above level "
            f"log2(p)={n_levels} to be skeletonized (no level restriction)"
        )
    state.phat_chain[n_levels] = phat_prev
    my_points = tree.points[subtree_root.lo : subtree_root.hi]
    method = SummationMethod(config.summation)
    comms = _build_comm_chain(comm, n_levels)

    # ---- distributed phase: Algorithm II.4, levels log p - 1 .. 0 -----
    for l in range(n_levels - 1, -1, -1):
        node_comm = comms[l]
        q = node_comm.size
        half_comm = comms[l + 1]
        node = tree.node(subtree_root.id >> (subtree_root.level - l))
        left_id, right_id = 2 * node.id, 2 * node.id + 1
        i_am_left = node_comm.rank < q // 2

        # skeleton exchange between {0} and {q/2}, then Bcast in halves.
        if node_comm.rank == 0:
            own = _skeleton_points(h, left_id)
            sib = node_comm.sendrecv(own, dest=q // 2, source=q // 2, tag=10 + l)
        elif node_comm.rank == q // 2:
            own = _skeleton_points(h, right_id)
            sib = node_comm.sendrecv(own, dest=0, source=0, tag=10 + l)
        else:
            sib = None
        sib_pts, s_sib = half_comm.bcast(sib, root=0)
        s_mine = h.skeletons[left_id if i_am_left else right_id].rank

        ksib = KernelSummation(
            h.kernel,
            sib_pts,
            my_points,
            method,
            norms_b=h.norms.range(subtree_root.lo, subtree_root.hi),
        )
        lstate = _LevelState(node_id=node.id, ksib=ksib, s_mine=s_mine)
        state.levels[l] = lstate

        # Gram blocks of Z: each rank contributes K_{sib~, x_i} P^_{x_i c~}.
        B_i = ksib.matvec(phat_prev)  # (s_sib, s_mine)
        B = half_comm.reduce(B_i, root=0)
        if node_comm.rank == q // 2:
            node_comm.send(B, 0, tag=20 + l)  # B = K_{l~ r} P^_{r r~}
        if node_comm.rank == 0:
            B_lr = node_comm.recv(q // 2, tag=20 + l)
            B_rl = B
            s_l = B_rl.shape[1]
            s_r = B_lr.shape[1]
            Z = np.eye(s_l + s_r)
            Z[:s_l, s_l:] += B_lr
            Z[s_l:, :s_l] += B_rl
            lstate.z_lu = lapack.lu_factor(Z)
            count_flops(2 * (s_l + s_r) ** 3 // 3, label="dist_z_lu")
            lstate.s_l, lstate.s_r = s_l, s_r

        if l == 0:
            break  # the root has no skeleton: nothing to telescope.

        # telescope P^_{x alpha~} (eq. 10 in push-through form): {0}
        # holds Z's LU and the node's projection, so it solves
        # Z y = P_{[l~ r~] alpha~} and scatters y; my rows of P^_alpha
        # are my rows of my child's P^ times my child's rows of y.
        y = None
        if node_comm.rank == 0:
            y = _z_solve(lstate, h.skeletons[node.id].proj.T)
        y_mine = _scatter_coefficients(node_comm, half_comm, lstate, y, l)
        count_flops(2 * phat_prev.size * y_mine.shape[1], label="dist_telescope")
        phat_prev = phat_prev @ y_mine
        state.phat_chain[l] = phat_prev

    return state


def _z_solve(lstate: _LevelState, t: np.ndarray) -> np.ndarray:
    """``Z^{-1} t`` on comm rank {0} of a distributed node."""
    k = 1 if t.ndim == 1 else t.shape[1]
    count_flops(2 * t.shape[0] ** 2 * k, label="dist_z_solve")
    return lapack.lu_solve(lstate.z_lu, t)


def _scatter_coefficients(
    node_comm: Communicator,
    half_comm: Communicator,
    lstate: _LevelState,
    y: np.ndarray | None,
    l: int,
) -> np.ndarray:
    """Each rank's rows of {0}'s ``Z^{-1}`` coefficients ``y``.

    {0} keeps the left child's skeleton rows and sends the right
    child's to {q/2}; each broadcasts its rows within its half.
    """
    q = node_comm.size
    y_half = None
    if node_comm.rank == 0:
        node_comm.send(y[lstate.s_l :], q // 2, tag=40 + l)
        y_half = y[: lstate.s_l]
    elif node_comm.rank == q // 2:
        y_half = node_comm.recv(0, tag=40 + l)
    return half_comm.bcast(y_half, root=0)


def _reduced_solve_dist(
    node_comm: Communicator,
    half_comm: Communicator,
    lstate: _LevelState,
    t_i: np.ndarray,
    l: int,
) -> np.ndarray:
    """Algorithm II.5 at one distributed node: each rank's rows of ``Z^{-1} t``.

    Reduces each half's ``V``-contribution ``t_i`` (rows: *sibling*
    skeleton), solves ``Z y = t`` on {0}, and scatters ``y``
    (:func:`_scatter_coefficients`).
    """
    q = node_comm.size
    t_half = half_comm.reduce(t_i, root=0)
    if node_comm.rank == q // 2:
        # right half computed rows l~ (its sibling): send t_l to {0}.
        node_comm.send(t_half, 0, tag=30 + l)
    y = None
    if node_comm.rank == 0:
        t_l = node_comm.recv(q // 2, tag=30 + l)
        y = _z_solve(lstate, np.concatenate([t_l, t_half], axis=0))
    return _scatter_coefficients(node_comm, half_comm, lstate, y, l)


def _solve_worker(comm: Communicator, u: np.ndarray) -> np.ndarray:
    """Algorithm II.5 (recursion unrolled bottom-up over levels)."""
    state: _RankState = _resident_state(comm)
    n_levels = int(np.log2(comm.size))
    if n_levels == 0:
        return state.local.solve(u)

    comms = _build_comm_chain(comm, n_levels)
    subtree_root = state.local.hmatrix.tree.node(state.subtree_root_id)
    w = state.local.solve_subtree(subtree_root, u[state.lo : state.hi])

    for l in range(n_levels - 1, -1, -1):
        node_comm = comms[l]
        half_comm = comms[l + 1]
        lstate = state.levels[l]
        y_mine = _reduced_solve_dist(
            node_comm, half_comm, lstate, lstate.ksib.matvec(w), l
        )
        phat = state.phat_chain[l + 1]
        w = w - phat @ y_mine
        k = 1 if w.ndim == 1 else w.shape[1]
        count_flops(2 * phat.size * k, label="dist_correct")
    return w


def distributed_factorize(
    hmatrix: HMatrix,
    lam: float = 0.0,
    n_ranks: int = 2,
    config: SolverConfig | None = None,
    fault_plan: FaultPlan | None = None,
    backend: str | None = None,
    elastic: bool = False,
    max_respawns: int = 2,
) -> DistributedFactorization:
    """DistFactorize (Algorithm II.4) over ``n_ranks`` virtual ranks.

    ``n_ranks`` must be a power of two and at most ``2^depth``.  Level
    restriction is not supported in the distributed path (the paper's
    distributed runs in Table III / Figure 4 are unrestricted); use the
    serial :func:`repro.solvers.factorize` for hybrid/restricted runs.

    ``fault_plan`` arms chaos injection (docs/ROBUSTNESS.md): message
    drops/corruptions/delays are retried transparently and injected rank
    crashes are recovered by respawn-with-replay; everything observed is
    recorded in the returned factorization's ``health``.

    ``backend`` selects the vMPI execution backend (``"thread"``,
    ``"socket"``, or ``None`` for ``config.backend``, which itself
    defaults to the ``REPRO_VMPI_BACKEND`` environment).  Both produce
    bitwise-identical factors; see docs/PARALLELISM.md.  The returned
    handle keeps the world of ranks that factorized, each holding the
    H-matrix and its state, for :func:`distributed_solve`; ``close()``
    ends them.

    A refit — a call over the same ``hmatrix`` object whose latest
    handle still owns a live world with the same rank count and
    backend — runs on that world instead of spawning one, shipping only
    ``lam`` and ``config``.  The new handle takes the world over; the
    older one keeps its ``states`` and from then on solves on a
    one-program world seeded from them, as an unpickled handle does.  A
    failed refit closes the world.

    ``elastic=True`` arms **repartitioning**: every rank checkpoints its
    subtree factors at the local/distributed boundary, and when a rank
    is *permanently* lost (crash past the respawn budget, or a
    heartbeat-confirmed hang on the socket backend) the factorization
    relaunches on ``n_ranks / 2`` ranks — each new rank owns the parent
    of two old subtrees — restoring the survivors' checkpointed nodes
    and refactorizing only the lost subtree plus the merged roots.  The
    repartition is recorded in the returned ``health`` and in the
    fabric's ``repartitions`` counter.
    """
    from repro.exceptions import RankLostError

    config = config or SolverConfig()
    if config.method not in ("nlogn", "direct"):
        raise ConfigurationError(
            "distributed factorization supports the telescoping method "
            f"only; got method={config.method!r}"
        )

    health = SolverHealth(final_path="distributed")
    resume: dict | None = None
    lost_stats: list[CommStats] = []
    repartition_events: list[dict] = []
    while True:
        # a failed program closes its world, so no rank outlives a
        # repartition or an error.
        try:
            world, states, stats = _launch_factorization(
                hmatrix,
                n_ranks,
                backend if backend is not None else config.backend,
                _factor_worker,
                lam,
                config,
                fault_plan=fault_plan,
                elastic=elastic,
                max_respawns=max_respawns,
                checkpoint=elastic,
                resume=resume,
            )
            break
        except RankLostError as exc:
            if not elastic or n_ranks < 2:
                raise
            # Repartition: halve the rank count so every new rank owns
            # the parent of two old subtree roots.  Survivor checkpoints
            # seed the resume map; the dead rank's subtree (its host is
            # gone, checkpoint discarded) and the merged roots are
            # refactorized fresh.  The distributed phase re-runs
            # entirely — it is the cheap O(s^2 log^2 p) part.
            resume = dict(resume or {})
            for ckpt in exc.checkpoints.values():
                for payload in ckpt["nodes"]:
                    resume[payload["node_id"]] = payload
            if exc.stats is not None:
                lost_stats.append(exc.stats)
            event = {
                "lost_rank": exc.rank,
                "epoch": exc.epoch,
                "from_ranks": n_ranks,
                "to_ranks": n_ranks // 2,
                "restored_nodes": len(resume),
            }
            repartition_events.append(event)
            health.record("repartition", **event)
            n_ranks //= 2
            if fault_plan is not None:
                # the supervisor's own copy of the plan may not have
                # seen the victim fire (socket ranks get copies).
                fault_plan.disarm_crash()

    for lost in lost_stats:
        stats.merge(lost)
    if repartition_events:
        from repro.obs.metrics import registry

        for event in repartition_events:
            stats.record_fault("repartitions", rank=event["lost_rank"])
            # each launch already published its own counters at join;
            # the repartition itself is supervisor-side, so mirror it
            # into the registry here.
            registry().counter(
                "fabric.faults", kind="repartitions", rank=event["lost_rank"]
            ).inc(1)
    health.ingest_comm(stats)
    dist = DistributedFactorization(
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


def distributed_solve(
    dist: DistributedFactorization,
    u: np.ndarray,
    fault_plan: FaultPlan | None = None,
) -> tuple[np.ndarray, CommStats]:
    """DistSolve (Algorithm II.5): ``w = (lambda I + K~)^{-1} u``.

    ``u`` is in tree order; returns ``(w, comm_stats)`` where the stats
    cover this solve's traffic only (paper: O(s log^2 p) per RHS).
    The solve runs on the ranks that factorized, on the backend they
    ran on (``dist.backend``), and they ship back only their pieces of
    ``w``.  Faults observed under a ``fault_plan`` are also appended to
    ``dist.health``.
    """
    if not dist.states:
        raise NotFactorizedError("distributed factorization has no rank states")
    u = check_vector(u, dist.hmatrix.n_points)
    pieces, stats = dist._run(_solve_worker, u, fault_plan=fault_plan)
    dist.health.ingest_comm(stats)
    return np.concatenate(pieces, axis=0), stats
