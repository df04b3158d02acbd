"""Hierarchical factorization of ``lambda I + K~`` (paper section II-B/C).

The factorization processes the tree bottom-up (Algorithm II.2):

* **leaves** — dense LU of ``lambda I + K_leaf`` (LAPACK ``getrf``), and
  ``P^_leaf = (lambda I + K_leaf)^{-1} P_leaf`` directly;
* **internal nodes at/below the frontier** — form the reduced system
  ``Z = I + V W`` (eq. 8) from the children's ``P^`` factors, LU it, and
  *telescope* ``P^_alpha`` from the children via eq. (10) — no subtree
  traversal, which is what removes the extra log factor;
* **above the frontier** — one coalesced system over the frontier
  skeletons, solved by dense LU (``"direct"``/``"nlogn"``) or GMRES
  (``"hybrid"``, Algorithm II.6).  When the frontier is the root's
  children this coalesced system *is* the root step of Algorithm II.2,
  so no special casing is needed.  The hybrid's GMRES operator starts
  matrix-free and assembles the same ``Z`` the direct methods factor
  once its applications have cost as much as assembling it
  (:meth:`HierarchicalFactorization.reduced_matvec`).

The ``"nlog2n"`` method reproduces INV-ASKIT [36]: identical ``Z``
factors, but ``P^_alpha`` is computed by explicitly forming
``P_{alpha alpha~}`` and running the recursive subtree solve
(Algorithm II.3 with ``do_recur = true``), which costs an extra log
factor.  Both methods produce the same factors to roundoff — the paper
(and our tests) rely on that.

Every method factors a tree level with one set of numerics: the level's
nodes are grouped by operand shape and each step of eq. (8)/(10) is one
stacked GEMM / LU / solve per group (:mod:`repro.perf.levelbatch`).  A
group the batching policy declines runs as groups of one through the
same code, so a node's factors do not depend on how its level was
grouped — which is what lets the distributed local phase, the task-DAG
executor, incremental updates and low-storage re-telescoping reproduce
the serial full-storage factors bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.config import GMRESConfig, SolverConfig
from repro.exceptions import NotFactorizedError, StabilityError
from repro.hmatrix.hmatrix import HMatrix
from repro.kernels.summation import KernelSummation
from repro.obs import registry, span
from repro.perf import levelbatch
from repro.solvers.gmres import gmres, gmres_batched
from repro.solvers.stability import (
    StabilityReport,
    estimate_rcond,
    estimate_rcond_batched,
    is_breakdown,
)
from repro.tree.node import Node
from repro.util import lapack
from repro.util.flops import count_flops, count_mops
from repro.util.validation import check_vector

__all__ = [
    "LeafFactor",
    "InternalFactor",
    "ReducedSystem",
    "HierarchicalFactorization",
    "factorize",
    "level_payload_nodes",
]


@dataclass
class LeafFactor:
    """LU of one leaf block ``lambda I + K_leaf`` plus its ``P^``."""

    lu: tuple[np.ndarray, np.ndarray]
    phat: np.ndarray | None  # (m, s) or None for a skeleton-less root leaf
    rcond: float


@dataclass
class InternalFactor:
    """Per-internal-node factors at/below the frontier.

    ``z_lu`` factors eq. (8)'s ``Z = [[I, K_{l~r} P^_r], [K_{r~l} P^_l, I]]``,
    whose blocks ``K_{l~ r}``/``K_{r~ l}`` are the H-matrix's sibling
    blocks (:meth:`HMatrix.sibling_block`); ``phat`` is the telescoped
    ``P^_{alpha alpha~}`` (None exactly at frontier-less internal use).
    """

    z_lu: tuple[np.ndarray, np.ndarray]
    s_l: int
    s_r: int
    phat: np.ndarray | None
    rcond: float


@dataclass
class ReducedSystem:
    """The coalesced above-frontier system (paper section II-C).

    ``V`` has block rows ``K_{f~ , X \\ f}`` over frontier nodes ``f``,
    read as the H-matrix's pair blocks ``K_{f~ g}``, ``g != f``
    (:meth:`HMatrix.pair_block`, which the treecode product shares).
    ``W^`` is blockdiag of the frontier ``P^`` factors.
    ``z_lu`` holds the dense LU of ``I + V W^`` for the direct methods
    and is ``None`` for the hybrid method (GMRES instead), whose ``z``
    holds the assembled ``I + V W^`` once its matrix-free applications
    have paid for it (:meth:`HierarchicalFactorization.reduced_matvec`).
    """

    frontier: list[Node]
    slices: dict[int, slice]  # node id -> rows of the reduced system
    size: int
    z_lu: tuple[np.ndarray, np.ndarray] | None
    rcond: float
    z: np.ndarray | None = None

    @property
    def assembly_columns(self) -> float:
        """Matrix-free column applications that cost as much as assembling ``Z``.

        One column of ``(I + V W^) y`` costs ``2 N S`` flops; assembling
        ``Z`` costs ``sum_g 2 n_g s_g (S - s_g)`` (every pair block times
        its ``P^``).
        """
        n = sum(g.size for g in self.frontier)
        assembly = 0
        for g in self.frontier:
            s_g = self.slices[g.id].stop - self.slices[g.id].start
            assembly += 2 * g.size * s_g * (self.size - s_g)
        return assembly / (2 * n * self.size)


def _stack(blocks: list[np.ndarray]) -> np.ndarray:
    """``np.stack`` of same-shaped blocks; a group of one is a view."""
    if len(blocks) == 1:
        return np.ascontiguousarray(blocks[0])[None]
    return np.stack(blocks)


def _v_products(v, X: np.ndarray):
    """``K_i X[i]`` over a shape group's ``V`` blocks.

    ``v`` is ``(summations, K)`` with ``K`` the stacked dense blocks, or
    ``None`` when the blocks stay matrix-free (``reevaluate``/``fused``
    summation, or a shape the cache declines: its verdict is per shape,
    so a group is all dense or all matrix-free).  One stacked GEMM, or
    each member's :meth:`KernelSummation.matvec`; flops and memory ops
    are charged as ``matvec`` charges them.
    """
    summs, K = v
    if K is None:
        return [summ.matvec(X[i]) for i, summ in enumerate(summs)]
    g, m, n = K.shape
    k = X.shape[-1]
    count_flops(g * 2 * m * n * k, label="summation_gemv")
    count_mops(g * (m * n + n * k + m * k))
    return np.matmul(K, X)


def _refactored(event: dict, node_id: int) -> bool:
    """True when the lambda bump ``event`` re-factorized ``node_id``.

    A bump at node ``p`` redoes ``p``'s whole subtree, so it covers
    ``p`` and every descendant; with heap ids the ancestors of ``i``
    are ``i >> k``.
    """
    at, node_id = int(event["node_id"]), int(node_id)
    shift = node_id.bit_length() - at.bit_length()
    return shift >= 0 and node_id >> shift == at


def _telescope_update(s_l, phat_l, phat_r, G_l, G_r, y) -> np.ndarray:
    """Eq. (10) after its reduced solve: the stacked ``P^_alpha``."""
    g, nl, s_a = G_l.shape
    top = G_l - np.matmul(phat_l, y[:, :s_l])
    bot = G_r - np.matmul(phat_r, y[:, s_l:])
    s_r, nr = y.shape[1] - s_l, G_r.shape[1]
    count_flops(g * 2 * s_a * (nl * s_l + nr * s_r), label="factor_telescope")
    return np.concatenate([top, bot], axis=1)


class HierarchicalFactorization:
    """Factorized ``lambda I + K~``; created by :func:`factorize`.

    All vectors are in *tree order*; the facade handles permutation.
    """

    def __init__(
        self,
        hmatrix: HMatrix,
        lam: float,
        config: SolverConfig,
    ) -> None:
        self.hmatrix = hmatrix
        self.lam = float(lam)
        self.config = config
        self.leaf_factors: dict[int, LeafFactor] = {}
        self.node_factors: dict[int, InternalFactor] = {}
        self.reduced: ReducedSystem | None = None
        self.stability = StabilityReport(
            threshold=config.cond_threshold, enabled=config.check_stability
        )
        self._factored = False
        #: recovery-ladder events (lambda bumps) taken during this
        #: factorization; :class:`repro.solvers.recovery.SolverHealth`
        #: ingests them.  Empty unless ``config.recovery.enabled``.
        self.recovery_events: list[dict] = []
        #: per-leaf extra regularization added by the lambda-bump rung.
        self._lam_extra: dict[int, float] = {}
        self._leaf_anorms: dict[int, float] = {}
        #: GMRES iteration counts of reduced-system solves (hybrid).
        self.reduced_iterations: list[int] = []
        #: per-solve GMRES relative-residual histories (hybrid) — the
        #: convergence curves of Figure 5.
        self.reduced_histories: list[list[float]] = []
        #: tree levels whose factors are complete (checkpoint/resume
        #: granularity; includes restored levels).
        self.completed_levels: set[int] = set()
        #: nodes transplanted from prior factors
        #: (``factorize(resume_nodes=...)``).
        self.nodes_resumed: int = 0
        #: contiguous per-level factor storage (level -> list of stacked
        #: arrays); the per-node ``LeafFactor``/``InternalFactor`` fields
        #: are *views* into these stacks.
        self.level_stacks: dict[int, list[np.ndarray]] = {}
        #: node id -> (phat stack, slice index, the exact view handed to
        #: the node's factor).  Lets the next level up gather children
        #: P^ blocks as one strided view instead of a stack copy; the
        #: view identity check makes recovery-rewritten entries fall
        #: back to copying automatically.
        self._phat_slots: dict[int, tuple[np.ndarray, int, np.ndarray]] = {}
        self._init_transient()

    def _init_transient(self) -> None:
        """Locks and the reduced operator's switch state; never pickled."""
        # low-storage solves temporarily re-materialize P^ blocks; the
        # lock serializes concurrent solves in that mode (full-storage
        # solves only read the factors).
        self._solve_lock = threading.Lock()
        # guards the switch state below.  Not _solve_lock: a low-storage
        # solve holds that one around GMRES, and threading.Lock is not
        # reentrant.
        self._assemble_lock = threading.Lock()
        #: columns the hybrid's reduced operator applied matrix-free, across
        #: solves (the counter of :meth:`reduced_matvec`'s switch).
        self._columns_applied = 0
        #: the cache budget refused to hold the assembled operator.
        self._assembly_declined = False

    # -- pickling: locks are not picklable; recreate on load -------------
    def __getstate__(self):
        state = dict(self.__dict__)
        for name in ("_solve_lock", "_assemble_lock", "_columns_applied",
                     "_assembly_declined"):
            del state[name]
        # the per-node factors (views into the stacks) pickle as plain
        # arrays; shipping the stacks too would double the payload.  The
        # assembled reduced operator is derived state too.
        state["level_stacks"] = {}
        state["_phat_slots"] = {}
        if self.reduced is not None and self.reduced.z is not None:
            state["reduced"] = dataclasses.replace(self.reduced, z=None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_transient()

    # ------------------------------------------------------------------
    # construction: one level-stacked kernel (repro.perf.levelbatch)
    # ------------------------------------------------------------------
    def _factor_subtrees(
        self,
        roots: list[Node],
        *,
        deadline=None,
        resume_nodes: dict[int, dict] | None = None,
        on_level=None,
        recover: bool = True,
    ) -> set[int]:
        """Factor every node under ``roots`` bottom-up, a tree level at a time.

        The one level loop of Algorithm II.2: :func:`factorize`, recovery
        rung 1 and the local phases of the distributed solvers all run
        it.  A node's factors depend only on its subtree and lambda, so a
        node is transplanted from ``resume_nodes`` (payloads of
        :meth:`export_node_payload`) if and only if it has a payload and
        is a leaf or had both children transplanted; the rest of its
        level is factored.  ``on_level(level)`` runs after each level
        that factored a node; a level transplanted whole is marked
        complete.  Returns the ids of the transplanted nodes.
        """
        tree = self.hmatrix.tree
        resume_nodes = resume_nodes or {}
        by_level: dict[int, list[Node]] = {}
        stack = list(roots)
        while stack:
            node = stack.pop()
            by_level.setdefault(node.level, []).append(node)
            if not tree.is_leaf(node):
                stack.extend(tree.children(node))
        transplanted: set[int] = set()
        for level in sorted(by_level, reverse=True):
            members = by_level[level]
            todo = []
            for node in members:
                if node.id in resume_nodes and (
                    tree.is_leaf(node)
                    or all(c.id in transplanted for c in tree.children(node))
                ):
                    self.restore_node_payload(resume_nodes[node.id])
                    transplanted.add(node.id)
                else:
                    todo.append(node)
            self.nodes_resumed += len(members) - len(todo)
            if not todo:
                self.completed_levels.add(level)
                continue
            with span("factorize.level", attrs={"level": level, "nodes": len(todo)}):
                self._factor_level(todo, deadline, recover=recover)
            if on_level is not None:
                on_level(level)
        for level in sorted(by_level, reverse=True):
            self._restore_node_order(by_level[level])
        if transplanted:
            # a carried event enters with the first node restored under
            # it; put each back where a climb that bumped it records it:
            # at its node's level, in level order.
            place = {
                n.id: (-level, i)
                for level, members in by_level.items()
                for i, n in enumerate(members)
            }
            self.recovery_events.sort(key=lambda e: place.get(e["node_id"], (1, 0)))
        return transplanted

    def _factor_level(
        self, nodes: list[Node], deadline=None, *, recover: bool = True
    ) -> None:
        """Factor same-level ``nodes`` whose children are already factored.

        Deadline charges land per node before any numerics run, so a
        deadline trips at the level boundary instead of mid-stack.  Nodes
        are grouped by operand shape; a group the
        :class:`~repro.perf.levelbatch.BatchPolicy` declines runs as
        groups of one through the same stacked code, so a node's factors
        never depend on how its level was grouped.  Broken-down nodes
        then take recovery rung 1 in node order (their subtrees are
        disjoint); with ``recover=False`` the first one raises instead,
        which fails a rung-1 attempt as a whole.
        """
        if deadline is not None:
            for node in nodes:
                deadline.charge(1, f"factorize.node({node.id})")
        tree = self.hmatrix.tree
        policy = levelbatch.BatchPolicy.current()
        stacks: list[np.ndarray] = []
        broken: list[tuple[Node, str]] = []
        singles = 0
        leaves = [n for n in nodes if tree.is_leaf(n)]
        for (_m, s), group in self._leaf_groups(leaves, policy):
            self._factor_leaf_group(group, s, stacks, broken)
            singles += len(group) == 1
        internals = [n for n in nodes if not tree.is_leaf(n)]
        for key, group in self._internal_groups(internals, policy):
            self._factor_internal_group(group, key, stacks, broken)
            singles += len(group) == 1
        if stacks:
            self.level_stacks.setdefault(nodes[0].level, []).extend(stacks)
        registry().counter("levelbatch.nodes").inc(len(nodes) - singles)
        registry().counter("levelbatch.fallback").inc(singles)
        position = {n.id: i for i, n in enumerate(nodes)}
        for node, message in sorted(broken, key=lambda b: position[b[0].id]):
            if not recover:
                raise StabilityError(message)
            self._recover_node(node)

    def _restore_node_order(self, nodes: list[Node]) -> None:
        """Re-insert ``nodes``' factors in node order.

        Shape groups, transplants and lambda bumps (which refactor a
        whole subtree) insert factors out of node order; order-dependent
        float accumulations over the factor dicts (slogdet's log sum)
        must not depend on how a level was grouped or how its factors
        were obtained.
        """
        for node in nodes:
            if node.id in self.leaf_factors:
                self.leaf_factors[node.id] = self.leaf_factors.pop(node.id)
            else:
                self.node_factors[node.id] = self.node_factors.pop(node.id)

    def _leaf_groups(self, leaves: list[Node], policy: levelbatch.BatchPolicy):
        sset = self.hmatrix.skeletons
        return levelbatch.split_groups(
            leaves,
            lambda leaf: (
                leaf.size,
                sset[leaf.id].rank if sset.is_skeletonized(leaf.id) else -1,
            ),
            lambda key, g: policy.worth(g, key[0] * key[0], calls_saved=8),
        )

    def _internal_groups(self, nodes: list[Node], policy: levelbatch.BatchPolicy):
        tree = self.hmatrix.tree
        sset = self.hmatrix.skeletons

        def node_key(node: Node):
            left, right = tree.children(node)
            return (
                left.size,
                right.size,
                sset[left.id].rank,
                sset[right.id].rank,
                sset[node.id].rank if sset.is_skeletonized(node.id) else -1,
            )

        def worth(key, g: int) -> bool:
            nl, nr, s_l, s_r, s_a = key
            s = s_l + s_r
            words = s * s + s_l * nr + s_r * nl + max(s_a, 0) * (nl + nr)
            return policy.worth(g, words, calls_saved=12)

        return levelbatch.split_groups(nodes, node_key, worth)

    def _factor_leaf_group(
        self,
        leaves: list[Node],
        s: int,
        stacks: list[np.ndarray],
        broken: list[tuple[Node, str]],
    ) -> None:
        """LU of ``lambda I + K_leaf`` and ``P^_leaf`` for same-shaped leaves.

        ``s`` is the leaves' skeleton rank, -1 for a skeleton-less root
        leaf (no ``P^``).
        """
        h = self.hmatrix
        sset = h.skeletons
        rec = self.config.recovery
        check = self.config.check_stability or rec.enabled
        g, m = len(leaves), leaves[0].size
        A = h.leaf_blocks_stacked(leaves)
        idx = np.arange(m)
        lam = self.lam + np.array(
            [self._lam_extra.get(leaf.id, 0.0) for leaf in leaves]
        )
        A[:, idx, idx] += lam[:, None]
        anorms = levelbatch.one_norms_stacked(A) if check else np.zeros(g)
        for i, leaf in enumerate(leaves):
            self._leaf_anorms[leaf.id] = float(anorms[i])
        phat = None
        if s >= 0:
            # F-sliced right-hand sides let dgetrs solve in place.
            P = np.empty((g, s, m)).transpose(0, 2, 1)
            for i, leaf in enumerate(leaves):
                P[i] = sset[leaf.id].proj.T
            lu, piv, phat = lapack.lu_factor_solve_batched(A, P, overwrite_b=True)
            count_flops(g * 2 * m**2 * s, label="factor_leaf_phat")
        else:
            lu, piv = lapack.lu_factor_batched(A)
        count_flops(g * (2 * m**3 // 3), label="factor_leaf_lu")
        stacks.extend([lu, piv] + ([phat] if phat is not None else []))
        rconds = estimate_rcond_batched(lu, anorms) if check else np.ones(g)
        for i, leaf in enumerate(leaves):
            rcond = float(rconds[i])
            self.stability.record("leaf", leaf.id, rcond)
            factor = LeafFactor(
                lu=(lu[i], piv[i]),
                phat=None if phat is None else phat[i],
                rcond=rcond,
            )
            self.leaf_factors[leaf.id] = factor
            if phat is not None:
                self._phat_slots[leaf.id] = (phat, i, factor.phat)
            if rec.enabled and is_breakdown(rcond, rec.rcond_breakdown):
                broken.append(
                    (leaf, f"leaf block {leaf.id} broke down (rcond={rcond:.2e})")
                )

    def _factor_internal_group(
        self,
        nodes: list[Node],
        key: tuple[int, int, int, int, int],
        stacks: list[np.ndarray],
        broken: list[tuple[Node, str]],
    ) -> None:
        """Eq. (8)'s ``Z = I + V W`` and its LU, then eq. (10)'s ``P^``,
        for same-shaped internal nodes: one stacked GEMM / LU / solve per
        step.  ``nlog2n`` takes its ``P^`` from the recursive solve."""
        rec = self.config.recovery
        check = self.config.check_stability or rec.enabled
        _nl, _nr, s_l, s_r, s_a = key
        g, s = len(nodes), s_l + s_r
        vl, vr, phat_l, phat_r = self._internal_operands(nodes)

        # With stability checks off, F-sliced storage lets the LU factor
        # Z in place; the 1-norm estimate must read a C-ordered stack
        # (its summation order is layout-dependent).
        if check:
            Z = np.zeros((g, s, s))
        else:
            Z = np.zeros((g, s, s)).transpose(0, 2, 1)
        di = np.arange(s)
        Z[:, di, di] = 1.0
        Z[:, :s_l, s_l:] = _v_products(vl, phat_r)  # K_{l~ r} P^_r
        Z[:, s_l:, :s_l] = _v_products(vr, phat_l)  # K_{r~ l} P^_l
        anorms = levelbatch.one_norms_stacked(Z) if check else np.zeros(g)
        telescope = s_a >= 0 and self.config.method != "nlog2n"
        if telescope:
            # the eq. (10) reduced solve fuses with the LU (one locked pass).
            G_l, G_r, t = self._telescope_rhs(nodes, vl, vr, phat_l, phat_r)
            z_lu, z_piv, y = lapack.lu_factor_solve_batched(
                Z, t, overwrite_a=not check, overwrite_b=True
            )
            count_flops(g * 2 * s**2 * s_a, label="factor_z_solve")
        else:
            z_lu, z_piv = lapack.lu_factor_batched(Z, overwrite_a=not check)
        count_flops(g * (2 * s**3 // 3), label="factor_z_lu")
        stacks.extend([z_lu, z_piv])
        rconds = estimate_rcond_batched(z_lu, anorms) if check else np.ones(g)
        factors: list[InternalFactor] = []
        for i, node in enumerate(nodes):
            rcond = float(rconds[i])
            self.stability.record("reduced", node.id, rcond)
            factor = InternalFactor(
                z_lu=(z_lu[i], z_piv[i]),
                s_l=s_l,
                s_r=s_r,
                phat=None,
                rcond=rcond,
            )
            self.node_factors[node.id] = factor
            factors.append(factor)
            if rec.enabled and is_breakdown(rcond, rec.rcond_breakdown):
                broken.append(
                    (
                        node,
                        f"reduced system at node {node.id} broke down "
                        f"(rcond={rcond:.2e})",
                    )
                )

        if s_a < 0:
            return
        if not telescope:
            for node, factor in zip(nodes, factors):
                factor.phat = self._phat_recursive(node)
            return
        phat = _telescope_update(s_l, phat_l, phat_r, G_l, G_r, y)
        if self.config.storage == "low":
            # low-storage mode releases internal P^ blocks right after the
            # parent level; per-node copies keep that release effective
            # (a stack would stay pinned by any surviving frontier view).
            for i, factor in enumerate(factors):
                factor.phat = phat[i].copy()
            return
        stacks.append(phat)
        for i, (node, factor) in enumerate(zip(nodes, factors)):
            factor.phat = phat[i]
            self._phat_slots[node.id] = (phat, i, factor.phat)

    def _internal_operands(self, nodes: list[Node]):
        """``(V_l, V_r, P^_l, P^_r)`` of a same-shaped internal group.

        ``V_l``/``V_r`` pair the children's sibling blocks ``K_{l~ r}`` /
        ``K_{r~ l}`` with their stacked dense payloads (see
        :func:`_v_products`); ``P^_l``/``P^_r`` are the children's
        stacked ``P^`` blocks.
        """
        h = self.hmatrix
        children = [h.tree.children(n) for n in nodes]
        return (
            self._vblocks([h.sibling_block(left) for left, _ in children]),
            self._vblocks([h.sibling_block(right) for _, right in children]),
            self._gather_phats([left for left, _ in children]),
            self._gather_phats([right for _, right in children]),
        )

    def _vblocks(self, summs: list[KernelSummation]):
        """``(summs, K)`` for :func:`_v_products`: ``K`` stacks the
        group's dense blocks, ``None`` when any stays matrix-free."""
        blocks = levelbatch.materialize_summations(summs)
        if any(block is None for block in blocks):
            return summs, None
        return summs, _stack(blocks)

    def _telescope_rhs(self, nodes, vl, vr, phat_l, phat_r):
        """Eq. (10) up to its reduced solve, for a same-shaped group.

        Returns ``G_l = P^_l P_{l~ alpha~}``, ``G_r`` likewise, and the
        F-sliced right-hand side ``t = [K_{l~ r} G_r; K_{r~ l} G_l]`` of
        ``Z y = t`` (F-sliced so the solve runs in place).
        """
        sset = self.hmatrix.skeletons
        g, nl, s_l = phat_l.shape
        nr, s_r = phat_r.shape[1:]
        s_a = sset[nodes[0].id].rank
        projT_l = np.empty((g, s_l, s_a))
        projT_r = np.empty((g, s_r, s_a))
        for i, node in enumerate(nodes):
            proj = sset[node.id].proj  # (s_a, s_l + s_r)
            projT_l[i] = proj[:, :s_l].T
            projT_r[i] = proj[:, s_l:].T
        G_l = np.matmul(phat_l, projT_l)  # (g, |l|, s_a)
        G_r = np.matmul(phat_r, projT_r)  # (g, |r|, s_a)
        count_flops(g * 2 * s_a * (nl * s_l + nr * s_r), label="factor_telescope")
        t = np.empty((g, s_a, s_l + s_r)).transpose(0, 2, 1)
        t[:, :s_l] = _v_products(vl, G_r)
        t[:, s_l:] = _v_products(vr, G_l)
        return G_l, G_r, t

    # ------------------------------------------------------------------
    # recovery ladder, rung 1: per-subtree lambda bump (docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def _subtree_nodes(self, node: Node) -> list[Node]:
        """Postorder nodes of ``node``'s subtree (children before parents)."""
        tree = self.hmatrix.tree
        out: list[Node] = []

        def visit(n: Node) -> None:
            if not tree.is_leaf(n):
                left, right = tree.children(n)
                visit(left)
                visit(right)
            out.append(n)

        visit(node)
        return out

    def _recover_node(self, node: Node) -> None:
        """Lambda-bump ladder for a broken-down block at ``node``.

        Bumps the regularization on the subtree's diagonal (leaf) blocks
        — first by ``lambda_bump0`` relative to each leaf's 1-norm, then
        geometrically — re-factorizing just that subtree each attempt.
        Only the subtree is redone: skeletons, sibling blocks, and every
        factor outside it are untouched — the checkpointed-skeleton
        property that makes recovery local.  Raises
        :class:`~repro.exceptions.StabilityError` when the bump budget is
        exhausted (the caller escalates to the next rung).
        """
        rec = self.config.recovery
        tree = self.hmatrix.tree
        leaves = [n for n in self._subtree_nodes(node) if tree.is_leaf(n)]
        last: StabilityError | None = None
        for attempt in range(rec.max_lambda_bumps):
            scale = rec.lambda_bump_factor**attempt
            for lf in leaves:
                bump = (
                    rec.lambda_bump0
                    * max(self._leaf_anorms.get(lf.id, 1.0), 1.0)
                    * scale
                )
                self._lam_extra[lf.id] = self._lam_extra.get(lf.id, 0.0) + bump
            try:
                self._factor_subtrees([node], recover=False)
            except StabilityError as exc:
                last = exc
                continue
            self.recovery_events.append(
                {
                    "stage": "lambda_bump",
                    "node_id": node.id,
                    "attempts": attempt + 1,
                    "bumped_leaves": len(leaves),
                    "max_lam_extra": max(
                        self._lam_extra[lf.id] for lf in leaves
                    ),
                }
            )
            return
        raise StabilityError(
            f"lambda-bump ladder exhausted ({rec.max_lambda_bumps} attempts) "
            f"at node {node.id}: {last}"
        ) from last

    # ------------------------------------------------------------------
    # transplant payloads (repro.checkpoint/v1, update, distributed resume)
    # ------------------------------------------------------------------
    def export_node_payload(self, node_id: int) -> dict:
        """Serializable factors of one node and the recovery events behind them.

        A node carries every lambda bump that re-factorized it: those
        recorded at it or at an ancestor, whose bump it (for a leaf, its
        ``lam_extra``) still holds after a transplant.  Payloads are a
        handful of dense arrays: the ``V`` blocks stay with the H-matrix.
        Above the frontier, the root's payload is the coalesced frontier
        system's LU (the root step of Algorithm II.2; direct methods).
        """
        events = [e for e in self.recovery_events if _refactored(e, node_id)]
        if self.reduced is not None and node_id == self.hmatrix.tree.root.id:
            z_lu, piv = self.reduced.z_lu
            return {
                "kind": "frontier",
                "node_id": node_id,
                "z_lu": z_lu,
                "piv": piv,
                "rcond": self.reduced.rcond,
                "recovery_events": events,
            }
        if node_id in self.leaf_factors:
            lf = self.leaf_factors[node_id]
            return {
                "kind": "leaf",
                "node_id": node_id,
                "lu": lf.lu[0],
                "piv": lf.lu[1],
                "phat": lf.phat,
                "rcond": lf.rcond,
                "anorm": self._leaf_anorms.get(node_id, 0.0),
                "lam_extra": self._lam_extra.get(node_id, 0.0),
                "recovery_events": events,
            }
        nf = self.node_factors[node_id]
        return {
            "kind": "internal",
            "node_id": node_id,
            "z_lu": nf.z_lu[0],
            "piv": nf.z_lu[1],
            "s_l": nf.s_l,
            "s_r": nf.s_r,
            "phat": nf.phat,
            "rcond": nf.rcond,
            "recovery_events": events,
        }

    def restore_node_payload(self, payload: dict) -> None:
        """Transplant one node's factors back (inverse of export).

        Stability records and recovery events are replayed so reports
        stay faithful across a transplant (an ancestor's event, carried
        by each node of its subtree, is recorded once).
        """
        nid = payload["node_id"]
        if payload["kind"] == "leaf":
            self.leaf_factors[nid] = LeafFactor(
                lu=(payload["lu"], payload["piv"]),
                phat=payload["phat"],
                rcond=payload["rcond"],
            )
            self._leaf_anorms[nid] = payload["anorm"]
            if payload["lam_extra"]:
                self._lam_extra[nid] = payload["lam_extra"]
            self.stability.record("leaf", nid, payload["rcond"])
        else:
            self.node_factors[nid] = InternalFactor(
                z_lu=(payload["z_lu"], payload["piv"]),
                s_l=payload["s_l"],
                s_r=payload["s_r"],
                phat=payload["phat"],
                rcond=payload["rcond"],
            )
            self.stability.record("reduced", nid, payload["rcond"])
        for event in payload["recovery_events"]:
            if event not in self.recovery_events:
                self.recovery_events.append(event)

    def export_level_payload(self, level: int) -> dict:
        """The ``repro.checkpoint/v1`` ``level_NNN`` payload of one level.

        Its nodes' :meth:`export_node_payload` entries, keyed by node id
        under ``leaves``/``internals`` without their ``kind``,
        ``node_id`` and ``recovery_events`` keys, plus the level's
        recovery events; :func:`level_payload_nodes` inverts it.
        """
        tree = self.hmatrix.tree
        out = {
            "level": level,
            "lam": self.lam,
            "leaves": {},
            "internals": {},
            "recovery_events": [],
        }
        for nid in (*self.leaf_factors, *self.node_factors):
            if tree.node(nid).level != level:
                continue
            entry = self.export_node_payload(nid)
            kind = entry.pop("kind")
            del entry["node_id"]
            for event in entry.pop("recovery_events"):
                if event not in out["recovery_events"]:
                    out["recovery_events"].append(event)
            out["leaves" if kind == "leaf" else "internals"][nid] = entry
        return out

    def _gather_phats(self, nodes: list[Node]) -> np.ndarray:
        """Children's P^ blocks as one ``(g, n, s)`` stack.

        When every block still sits at its recorded slot in one child
        level stack (no recovery rewrote it) and the slots step
        uniformly, this is a strided *view* — no copy at all.  The step
        may be negative: level node order often stores the right child
        before the left, and a negative outer stride leaves the
        per-slice layout (hence the GEMM bit patterns) unchanged.  The
        fallback copy preserves the blocks' own layout — leaf ``P^``
        blocks are F-ordered (LAPACK solve outputs), internal ones
        C-ordered (concatenated telescopes) — because ``np.matmul``
        results follow operand strides, so a layout flip here would make
        a node's bits depend on how its level was grouped.  A group of
        one is a ``[None]`` view of its block, never a copy.
        """
        slots = [self._phat_slots.get(n.id) for n in nodes]
        first = slots[0]
        if first is not None and all(
            s is not None and s[0] is first[0] and self._phat(n) is s[2]
            for s, n in zip(slots, nodes)
        ):
            idx = [s[1] for s in slots]
            step = idx[1] - idx[0] if len(idx) > 1 else 1
            if step != 0 and all(b - a == step for a, b in zip(idx, idx[1:])):
                stop = idx[0] + step * len(idx)
                # a negative stop means "past the front": only None
                # expresses that in a slice.
                return first[0][idx[0] : (stop if stop >= 0 else None) : step]
        blocks = [self._phat(n) for n in nodes]
        if len(blocks) == 1 and (
            blocks[0].flags.f_contiguous or blocks[0].flags.c_contiguous
        ):
            return blocks[0][None]
        n, s = blocks[0].shape
        if all(b.flags.f_contiguous for b in blocks):
            out = np.empty((len(blocks), s, n)).transpose(0, 2, 1)
        else:
            out = np.empty((len(blocks), n, s))
        for i, block in enumerate(blocks):
            out[i] = block
        return out

    def _phat(self, node: Node) -> np.ndarray:
        if self.hmatrix.tree.is_leaf(node):
            phat = self.leaf_factors[node.id].phat
        else:
            phat = self.node_factors[node.id].phat
        if phat is None:
            raise NotFactorizedError(
                f"P^ of node {node.id} is not materialized (low-storage "
                "mode: use solve(), which re-telescopes it, or storage='full')"
            )
        return phat

    # -- low-storage mode (paper section III, "Recomputing W with (10)
    # can reduce another sN log(N/m) to sN") --------------------------
    def _drop_internal_phats(self, level: int | None = None) -> None:
        """Release P^ of internal non-frontier nodes (at ``level``, or all)."""
        frontier_ids = {f.id for f in self.hmatrix.frontier}
        tree = self.hmatrix.tree
        for nid, factor in self.node_factors.items():
            if nid in frontier_ids:
                continue
            if level is None or tree.node(nid).level == level:
                factor.phat = None

    def _materialize_phats(self) -> list[InternalFactor]:
        """Re-telescope dropped internal P^ blocks level by level (eq. 10).

        Runs the factorization's stacked eq. (10) code against the stored
        Z LUs (``dgetrs``, as the factorization's fused LU-and-solve
        does), so the restored blocks are bitwise the ones full storage
        keeps.  Returns the restored factors so the caller can release
        them again after the solve.
        """
        h = self.hmatrix
        by_level: dict[int, list[Node]] = {}
        for nid, factor in self.node_factors.items():
            if factor.phat is None and h.skeletons.is_skeletonized(nid):
                node = h.tree.node(nid)
                by_level.setdefault(node.level, []).append(node)
        policy = levelbatch.BatchPolicy.current()
        restored: list[InternalFactor] = []
        for level in sorted(by_level, reverse=True):
            for key, nodes in self._internal_groups(by_level[level], policy):
                _nl, _nr, s_l, s_r, s_a = key
                factors = [self.node_factors[n.id] for n in nodes]
                vl, vr, phat_l, phat_r = self._internal_operands(nodes)
                G_l, G_r, t = self._telescope_rhs(nodes, vl, vr, phat_l, phat_r)
                y = lapack.lu_solve_batched(
                    ([f.z_lu[0] for f in factors], [f.z_lu[1] for f in factors]),
                    t,
                    overwrite_b=True,
                )
                count_flops(
                    len(nodes) * 2 * (s_l + s_r) ** 2 * s_a, label="factor_z_solve"
                )
                phat = _telescope_update(s_l, phat_l, phat_r, G_l, G_r, y)
                for i, factor in enumerate(factors):
                    factor.phat = phat[i]
                restored.extend(factors)
        return restored

    @staticmethod
    def _release_phats(restored: list[InternalFactor]) -> None:
        for factor in restored:
            factor.phat = None

    def _phat_recursive(self, node: Node) -> np.ndarray:
        """INV-ASKIT [36]: P^_alpha = Solve(alpha, P_alpha, recurse=True).

        Forms the explicit telescoped basis ``P_{alpha alpha~}`` and
        runs the full recursive subtree solve — the O(N log^2 N) path.
        """
        P = self.hmatrix.skeletons.telescoped_basis(node)
        count_flops(2 * P.size * self.hmatrix.skeletons[node.id].rank, label="factor_basis")
        return self.solve_subtree(node, P)

    # ------------------------------------------------------------------
    def _build_reduced(self, root: dict | None = None) -> None:
        """Coalesced frontier system (section II-C / root of Alg. II.2).

        ``root`` is the root's :meth:`export_node_payload`: the direct
        methods take its LU instead of assembling and factoring ``Z``.
        """
        h = self.hmatrix
        slices = h.frontier_slices()
        size = sum(sl.stop - sl.start for sl in slices.values())
        red = ReducedSystem(
            frontier=h.frontier,
            slices=slices,
            size=size,
            z_lu=None,
            rcond=1.0,
        )
        if self.config.method != "hybrid":
            rec = self.config.recovery
            if root is not None:
                red.z_lu, red.rcond = (root["z_lu"], root["piv"]), root["rcond"]
            else:
                Z = self._assemble_reduced(red)
                check = self.config.check_stability or rec.enabled
                anorm = float(np.linalg.norm(Z, 1)) if check else 0.0
                red.z_lu = lapack.lu_factor(Z)
                count_flops(2 * size**3 // 3, label="factor_reduced_lu")
                red.rcond = estimate_rcond(red.z_lu[0], anorm) if check else 1.0
            self.stability.record("frontier", 1, red.rcond)
            if rec.enabled and is_breakdown(red.rcond, rec.rcond_breakdown):
                # no local fix exists for the coalesced system — the
                # caller (robust_factorize) descends the frontier and
                # retries with the hybrid method.
                raise StabilityError(
                    f"coalesced frontier system broke down (rcond={red.rcond:.2e})"
                )
        self.reduced = red

    def _assemble_reduced(self, red: ReducedSystem) -> np.ndarray:
        """``Z = I + V W^`` from the frontier pair blocks and ``P^`` factors.

        The one assembler: the direct methods LU its result while they
        factorize, the hybrid method calls it once its matrix-free
        applications have paid for it (:meth:`reduced_matvec`).  Pairs
        ``(f, g)`` are grouped by the shape of ``K_{f~ g} P^_g``; a group
        the batch policy declines runs as groups of one through the same
        code, as :meth:`_factor_level` does.  The scatter targets are
        disjoint, so the accumulation order does not matter.
        """
        h = self.hmatrix
        sset = h.skeletons
        policy = levelbatch.BatchPolicy.current()
        pairs = [(f, g) for g in red.frontier for f in red.frontier if f.id != g.id]
        Z = np.eye(red.size)
        for _key, members in levelbatch.split_groups(
            pairs,
            lambda fg: (sset[fg[0].id].rank, fg[1].size, sset[fg[1].id].rank),
            lambda key, g: policy.worth(g, key[1] * (key[0] + key[2]), calls_saved=6),
        ):
            v = self._vblocks([h.pair_block(f, g) for f, g in members])
            prods = _v_products(v, self._gather_phats([g for _, g in members]))
            for (f, g), prod in zip(members, prods):
                Z[red.slices[f.id], red.slices[g.id]] += prod
        return Z

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def solve_subtree(self, node: Node, u: np.ndarray) -> np.ndarray:
        """Algorithm II.3: ``w = (lambda I + K~_{node node})^{-1} u``.

        ``node`` must be at or below the frontier.  ``u`` is indexed by
        the node's points (shape ``(|node|,)`` or ``(|node|, k)``).
        """
        h = self.hmatrix
        tree = h.tree
        if tree.is_leaf(node):
            w = lapack.lu_solve(self.leaf_factors[node.id].lu, u)
            k = 1 if u.ndim == 1 else u.shape[1]
            count_flops(2 * node.size**2 * k, label="solve_leaf")
            return w
        left, right = tree.children(node)
        nl = left.size
        w_l = self.solve_subtree(left, u[:nl])
        w_r = self.solve_subtree(right, u[nl:])
        factor = self.node_factors[node.id]
        t_top = h.sibling_block(left).matvec(w_r)
        t_bot = h.sibling_block(right).matvec(w_l)
        t = np.concatenate([t_top, t_bot], axis=0)
        y = lapack.lu_solve(factor.z_lu, t)
        k = 1 if u.ndim == 1 else u.shape[1]
        count_flops(2 * t.shape[0] ** 2 * k, label="solve_z")
        phat_l = self._phat(left)
        phat_r = self._phat(right)
        w_l = w_l - phat_l @ y[: factor.s_l]
        w_r = w_r - phat_r @ y[factor.s_l :]
        count_flops(2 * (phat_l.size + phat_r.size) * k, label="solve_correct")
        return np.concatenate([w_l, w_r], axis=0)

    def _apply_what(self, y: np.ndarray) -> np.ndarray:
        """``W^ y``: scatter reduced coefficients through the P^ blocks."""
        assert self.reduced is not None
        red = self.reduced
        n = self.hmatrix.n_points
        w = (
            np.zeros(n)
            if y.ndim == 1
            else np.zeros((n, y.shape[1]))
        )
        for f in red.frontier:
            phat = self._phat(f)
            w[f.lo : f.hi] = phat @ y[red.slices[f.id]]
            count_flops(2 * phat.size * (1 if y.ndim == 1 else y.shape[1]), label="solve_what")
        return w

    def reduced_matvec(self, y: np.ndarray) -> np.ndarray:
        """``(I + V W^) y`` — the hybrid method's GMRES operator.

        Matrix-free until the columns it has applied, counted across
        solves, cost as many flops as assembling ``Z = I + V W^``
        (:attr:`ReducedSystem.assembly_columns`); then it assembles ``Z``
        once and returns ``Z @ y`` (the ski-rental rule).  A ``Z`` larger
        than the block cache's budget stays matrix-free.
        """
        red = self.reduced
        assert red is not None
        k = 1 if y.ndim == 1 else y.shape[1]
        if red.z is None and not self._assembly_declined:
            # concurrent solves count every column and assemble once.
            with self._assemble_lock:
                if red.z is None and not self._assembly_declined:
                    if self._columns_applied >= red.assembly_columns:
                        self._assemble_or_decline()
                    else:
                        self._columns_applied += k
        if red.z is not None:
            count_flops(2 * red.size**2 * k, label="reduced_matvec")
            count_mops(red.size**2 + 2 * red.size * k)
            return red.z @ y
        return y + self.hmatrix.apply_v(self._apply_what(y))

    def _assemble_or_decline(self) -> None:
        """Assemble the hybrid's ``Z``, unless the cache budget refuses it.

        Runs under ``_assemble_lock``; the decision is final either way.
        """
        red = self.reduced
        budget = self.hmatrix.cache.budget_words
        fits = budget is None or red.size**2 <= budget
        attrs = {
            "size": red.size,
            "threshold_columns": math.ceil(red.assembly_columns),
            "columns_applied": self._columns_applied,
            "outcome": "assembled" if fits else "declined",
        }
        with span("solve.assemble", attrs=attrs):
            if fits:
                red.z = self._assemble_reduced(red)
            else:
                self._assembly_declined = True

    @property
    def reduced_operator(self) -> str:
        """How solves apply the frontier system: ``"lu"``, ``"matrix-free"``
        or ``"assembled"`` (the hybrid after :meth:`reduced_matvec`'s switch)."""
        red = self.reduced
        if red is None or red.z_lu is not None:
            return "lu"
        return "matrix-free" if red.z is None else "assembled"

    def _solve_reduced(self, t: np.ndarray) -> np.ndarray:
        """Solve ``(I + V W^) y = t`` by LU (direct) or GMRES (hybrid)."""
        assert self.reduced is not None
        red = self.reduced
        if red.z_lu is not None:
            k = 1 if t.ndim == 1 else t.shape[1]
            count_flops(2 * red.size**2 * k, label="solve_reduced")
            return lapack.lu_solve(red.z_lu, t)
        cfg: GMRESConfig = self.config.gmres
        if t.ndim == 1:
            res = gmres(self.reduced_matvec, t, cfg)
            self.reduced_iterations.append(res.n_iters)
            self.reduced_histories.append(res.residuals)
            return res.x
        # one lockstep GMRES iteration per matvec: every pair block sees
        # the whole (size, k) panel at once (BLAS-3).
        results = gmres_batched(self.reduced_matvec, t, cfg)
        for res in results:
            self.reduced_iterations.append(res.n_iters)
            self.reduced_histories.append(res.residuals)
        return np.stack([res.x for res in results], axis=1)

    def solve(self, u: np.ndarray) -> np.ndarray:
        """``w = (lambda I + K~)^{-1} u`` (tree order; (N,) or (N, k))."""
        if not self._factored:
            raise NotFactorizedError("call factorize() first")
        h = self.hmatrix
        u = check_vector(u, h.n_points)
        if h.tree.depth == 0:
            return lapack.lu_solve(self.leaf_factors[h.tree.root.id].lu, u)
        assert self.reduced is not None

        def run() -> np.ndarray:
            x = np.empty_like(u)
            with span("solve.subtrees", attrs={"frontier": len(h.frontier)}):
                for f in h.frontier:
                    x[f.lo : f.hi] = self.solve_subtree(f, u[f.lo : f.hi])
            # counter deltas carry GMRES's operator/orthogonalization split.
            with span("solve.reduced", counters=True):
                y = self._solve_reduced(h.apply_v(x))
            with span("solve.what"):
                return x - self._apply_what(y)

        if self.config.storage != "low":
            return run()
        with self._solve_lock:
            restored = self._materialize_phats()
            try:
                return run()
            finally:
                self._release_phats(restored)

    def slogdet(self) -> tuple[float, float]:
        """Sign and log|det| of ``lambda I + K~`` — for free from the LUs.

        By Sylvester's identity, ``det(D (I + W V)) = det(D) * det(Z)``
        at every node, so the determinant telescopes into the leaf LUs,
        the per-node reduced systems, and the coalesced frontier system:

        ``logdet = sum_leaf logdet(lam I + K_leaf) + sum_node logdet(Z_node)
        + logdet(Z_frontier)``.

        This is what makes Gaussian-process log-marginal-likelihoods
        O(N log N) (see :mod:`repro.learning.gp`).  Not available for
        the hybrid method (the frontier system is never factorized).

        Returns
        -------
        (sign, logabsdet):
            As :func:`numpy.linalg.slogdet`.
        """
        if not self._factored:
            raise NotFactorizedError("call factorize() first")
        if self.reduced is not None and self.reduced.z_lu is None:
            raise NotFactorizedError(
                "slogdet requires a direct factorization; the hybrid "
                "method never factorizes the frontier system"
            )

        sign = 1.0
        logdet = 0.0

        def accumulate(lu_piv: tuple[np.ndarray, np.ndarray]) -> None:
            nonlocal sign, logdet
            lu, piv = lu_piv
            diag = np.diag(lu)
            if np.any(diag == 0.0):
                sign = 0.0
                return
            neg = int(np.count_nonzero(diag < 0))
            # each row interchange flips the permutation sign.
            swaps = int(np.count_nonzero(piv != np.arange(len(piv))))
            if (neg + swaps) % 2:
                sign = -sign
            logdet += float(np.sum(np.log(np.abs(diag))))

        for lf in self.leaf_factors.values():
            accumulate(lf.lu)
        for nf in self.node_factors.values():
            accumulate(nf.z_lu)
        if self.reduced is not None and self.reduced.z_lu is not None:
            accumulate(self.reduced.z_lu)
        if sign == 0.0:
            return 0.0, -np.inf
        return sign, logdet

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def residual(self, u: np.ndarray, w: np.ndarray) -> float:
        """Relative residual ``||u - (lambda I + K~) w|| / ||u||`` (eq. 15)."""
        r = u - self.hmatrix.regularized_matvec(self.lam, w)
        un = float(np.linalg.norm(u))
        return float(np.linalg.norm(r)) / un if un > 0 else float(np.linalg.norm(r))

    def storage_words(self) -> int:
        """Persistent float64 words of the factorization (paper section
        III: ``U``, ``V`` and ``I + W V`` per level): :meth:`factor_words`
        plus :meth:`vblock_words`."""
        return self.factor_words() + self.vblock_words()

    def factor_words(self) -> int:
        """Words the factorization holds itself: the LUs, ``P^`` blocks
        and the hybrid's assembled ``Z`` (outside the block cache)."""
        total = 0
        for lf in self.leaf_factors.values():
            total += lf.lu[0].size
            if lf.phat is not None:
                total += lf.phat.size
        for nf in self.node_factors.values():
            total += nf.z_lu[0].size
            if nf.phat is not None:
                total += nf.phat.size
        if self.reduced is not None:
            if self.reduced.z_lu is not None:
                total += self.reduced.z_lu[0].size
            if self.reduced.z is not None:
                total += self.reduced.z.size
        return total

    def vblock_words(self) -> int:
        """Stored words of the ``V`` blocks the factorization reads: the
        H-matrix's sibling blocks under each factored internal node and
        its frontier pair blocks (the H-matrix's
        :meth:`~HMatrix.storage_words` counts them too)."""
        h = self.hmatrix
        blocks = [
            h.sibling_block(child)
            for nid in self.node_factors
            for child in h.tree.children(h.tree.node(nid))
        ]
        if self.reduced is not None:
            frontier = self.reduced.frontier
            blocks += [
                h.pair_block(f, g) for f in frontier for g in frontier if f.id != g.id
            ]
        return sum(block.storage_words for block in blocks)


def level_payload_nodes(payload: dict) -> dict[int, dict]:
    """``{node_id: node payload}`` of one ``level_NNN`` checkpoint payload.

    The inverse of :meth:`HierarchicalFactorization.export_level_payload`:
    checkpointed levels enter a factorization as ``resume_nodes``.
    """
    out: dict[int, dict] = {}
    for kind, key in (("leaf", "leaves"), ("internal", "internals")):
        for nid, entry in payload[key].items():
            events = [e for e in payload["recovery_events"] if _refactored(e, nid)]
            out[nid] = {
                "kind": kind, "node_id": nid, **entry, "recovery_events": events
            }
    return out


def factorize(
    hmatrix: HMatrix,
    lam: float = 0.0,
    config: SolverConfig | None = None,
    *,
    deadline=None,
    resume_nodes: dict[int, dict] | None = None,
    on_level=None,
    partial_sink: list | None = None,
) -> HierarchicalFactorization:
    """Factorize ``lambda I + K~`` (Algorithm II.2 / II.4 counterpart).

    Parameters
    ----------
    hmatrix:
        The hierarchical matrix (tree + skeletons + kernel).
    lam:
        Regularization ``lambda >= 0``.
    config:
        Method selection; see :class:`~repro.config.SolverConfig`.
    deadline:
        Optional :class:`repro.resilience.Deadline`; defaults to the one
        installed by :func:`repro.resilience.deadline_scope`.  Charged
        one work unit per node, so a
        :class:`~repro.exceptions.DeadlineExceededError` lands between
        nodes, never inside a BLAS call.
    resume_nodes:
        ``{node_id: payload}`` of prior factors to transplant instead of
        recompute: :meth:`~HierarchicalFactorization.export_node_payload`
        entries (incremental updates, degradation rung 2) or
        :func:`level_payload_nodes` of checkpointed levels.  A node is
        transplanted if and only if it has a payload and is a leaf or
        had both children transplanted.  The root's payload (the
        coalesced frontier LU) is taken only when every frontier node
        was transplanted.  Validity is the caller's contract: a payload
        must come from a factorization at the same lambda of the same
        subtree.  Transplanted nodes charge no deadline work.
    on_level:
        ``on_level(level, fact)`` called after each level that factored
        a node (the checkpoint write hook).
    partial_sink:
        When given, the factorization-in-progress is appended *before*
        work starts, so a caller catching ``DeadlineExceededError`` can
        inspect ``completed_levels`` and transplant the finished factors
        (ladder rung 2, :func:`repro.solvers.recovery.robust_factorize`).

    Returns
    -------
    HierarchicalFactorization

    Warns
    -----
    StabilityWarning
        When a diagonal block or reduced system is ill-conditioned past
        ``config.cond_threshold`` (paper section III detection), unless
        every block was transplanted.
    """
    from repro.resilience.deadline import current_deadline

    config = config or SolverConfig()
    if lam < 0:
        raise ValueError(f"lambda must be >= 0; got {lam}")
    if deadline is None:
        deadline = current_deadline()
    fact = HierarchicalFactorization(hmatrix, lam, config)
    if partial_sink is not None:
        partial_sink.append(fact)
    tree = hmatrix.tree

    if tree.depth == 0:
        if not fact._factor_subtrees([tree.root], resume_nodes=resume_nodes):
            fact.stability.warn_if_unstable()
        fact.completed_levels.add(0)
        fact._factored = True
        return fact

    def level_done(level: int) -> None:
        fact.completed_levels.add(level)
        if on_level is not None:
            on_level(level, fact)
        if config.storage == "low":
            # the level just below is no longer needed: its P^ blocks fed
            # this level's Z and telescoping (paper section III memory
            # scheme) — keep only leaf and frontier P^ persistent.
            fact._drop_internal_phats(level + 1)

    # bottom-up over the nodes at/below the frontier.
    transplanted = fact._factor_subtrees(
        hmatrix.frontier,
        deadline=deadline,
        resume_nodes=resume_nodes,
        on_level=level_done,
    )
    # a refactored frontier P^ means a refactored frontier system too.
    whole = all(f.id in transplanted for f in hmatrix.frontier)
    root = (resume_nodes or {}).get(tree.root.id) if whole else None

    if deadline is not None:
        deadline.check("factorize.reduced")
    with span("factorize.reduced", attrs={"frontier": len(hmatrix.frontier)}):
        fact._build_reduced(root)
    if config.storage == "low":
        fact._drop_internal_phats()
    fact._factored = True
    if not whole or (root is None and config.method != "hybrid"):
        # blocks only transplanted were reported where they were factored
        fact.stability.warn_if_unstable()
    return fact
