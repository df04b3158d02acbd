"""Hierarchical factorization of ``lambda I + K~`` (paper section II-B/C).

The factorization processes the tree bottom-up (Algorithm II.2):

* **leaves** — dense LU of ``lambda I + K_leaf`` (LAPACK ``getrf``), and
  ``P^_leaf = (lambda I + K_leaf)^{-1} P_leaf`` directly;
* **internal nodes at/below the frontier** — form the reduced system
  ``Z = I + V W`` (eq. 8) from the children's ``P^`` factors, LU it, and
  *telescope* ``P^_alpha`` from the children via eq. (10) — no subtree
  traversal, which is what removes the extra log factor;
* **above the frontier** — one coalesced system over the frontier
  skeletons, solved by dense LU (``"direct"``/``"nlogn"``) or
  matrix-free GMRES (``"hybrid"``, Algorithm II.6).  When the frontier
  is the root's children this coalesced system *is* the root step of
  Algorithm II.2, so no special casing is needed.

The ``"nlog2n"`` method reproduces INV-ASKIT [36]: identical ``Z``
factors, but ``P^_alpha`` is computed by explicitly forming
``P_{alpha alpha~}`` and running the recursive subtree solve
(Algorithm II.3 with ``do_recur = true``), which costs an extra log
factor.  Both methods produce the same factors to roundoff — the paper
(and our tests) rely on that.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.config import GMRESConfig, SolverConfig
from repro.exceptions import NotFactorizedError, StabilityError
from repro.hmatrix.hmatrix import HMatrix
from repro.kernels.summation import KernelSummation, SummationMethod
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

    ``z_lu`` factors eq. (8)'s ``Z = [[I, K_{l~r} P^_r], [K_{r~l} P^_l, I]]``;
    ``vblock_l``/``vblock_r`` are the (possibly matrix-free) skeleton-row
    blocks ``K_{l~ r}`` and ``K_{r~ l}``; ``phat`` is the telescoped
    ``P^_{alpha alpha~}`` (None exactly at frontier-less internal use).
    """

    z_lu: tuple[np.ndarray, np.ndarray]
    s_l: int
    s_r: int
    vblock_l: KernelSummation
    vblock_r: KernelSummation
    phat: np.ndarray | None
    rcond: float


@dataclass
class ReducedSystem:
    """The coalesced above-frontier system (paper section II-C).

    ``V`` has block rows ``K_{f~ , X \\ f}`` over frontier nodes ``f``,
    stored as per-pair blocks ``pair_blocks[(f, g)] = K_{f~ g}`` for
    ``g != f`` (sibling pairs reuse the H-matrix's cached blocks, so
    the frontier stage adds no kernel evaluations beyond the paper's
    V factors).  ``W^`` is blockdiag of the frontier ``P^`` factors.
    ``z_lu`` holds the dense LU of ``I + V W^`` for the direct methods
    and is ``None`` for the hybrid method (GMRES instead).
    """

    frontier: list[Node]
    slices: dict[int, slice]  # node id -> rows of the reduced system
    size: int
    pair_blocks: dict[tuple[int, int], KernelSummation]
    z_lu: tuple[np.ndarray, np.ndarray] | None
    rcond: float


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
        #: nodes transplanted from a prior factorization during an
        #: incremental update (``factorize(resume_nodes=...)``).
        self.nodes_resumed: int = 0
        #: contiguous per-level factor storage (level -> list of stacked
        #: arrays); the per-node ``LeafFactor``/``InternalFactor`` fields
        #: are *views* into these stacks when the level was batched.
        self.level_stacks: dict[int, list[np.ndarray]] = {}
        #: node id -> (phat stack, slice index, the exact view handed to
        #: the node's factor).  Lets the next level up gather children
        #: P^ blocks as one strided view instead of a stack copy; the
        #: view identity check makes recovery-rewritten entries fall
        #: back to copying automatically.
        self._phat_slots: dict[int, tuple[np.ndarray, int, np.ndarray]] = {}
        #: batching threshold for this factorization; ``None`` runs the
        #: per-node path (set by :func:`factorize`).
        self._batch_policy: levelbatch.BatchPolicy | None = None
        # low-storage solves temporarily re-materialize P^ blocks; the
        # lock serializes concurrent solves in that mode (full-storage
        # solves are read-only and need no coordination).
        self._solve_lock = threading.Lock()

    # -- pickling: locks are not picklable; recreate on load -------------
    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_solve_lock"]
        # the per-node factors (views into the stacks) pickle as plain
        # arrays; shipping the stacks too would double the payload.
        state["level_stacks"] = {}
        state["_phat_slots"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._solve_lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _factor_leaf(self, leaf: Node) -> None:
        h = self.hmatrix
        rec = self.config.recovery
        A = np.array(h.leaf_block(leaf), copy=True)
        idx = np.arange(A.shape[0])
        A[idx, idx] += self.lam + self._lam_extra.get(leaf.id, 0.0)
        check = self.config.check_stability or rec.enabled
        anorm = float(np.linalg.norm(A, 1)) if check else 0.0
        self._leaf_anorms[leaf.id] = anorm
        lu = lapack.lu_factor(A)
        count_flops(2 * A.shape[0] ** 3 // 3, label="factor_leaf_lu")
        rcond = estimate_rcond(lu[0], anorm) if check else 1.0
        self.stability.record("leaf", leaf.id, rcond)
        if rec.enabled and is_breakdown(rcond, rec.rcond_breakdown):
            raise StabilityError(
                f"leaf block {leaf.id} broke down (rcond={rcond:.2e})"
            )

        phat = None
        if h.skeletons.is_skeletonized(leaf.id):
            proj = h.skeletons[leaf.id].proj  # (s, m)
            phat = lapack.lu_solve(lu, proj.T)
            count_flops(2 * A.shape[0] ** 2 * proj.shape[0], label="factor_leaf_phat")
        self.leaf_factors[leaf.id] = LeafFactor(lu=lu, phat=phat, rcond=rcond)

    def _factor_internal(self, node: Node) -> None:
        """Z assembly + P^ telescoping for one internal node (Alg. II.2)."""
        h = self.hmatrix
        tree = h.tree
        left, right = tree.children(node)
        sk_l = h.skeletons[left.id]
        sk_r = h.skeletons[right.id]
        s_l, s_r = sk_l.rank, sk_r.rank
        vbl = h.sibling_block(left)  # K_{l~ r}, (s_l, |r|)
        vbr = h.sibling_block(right)  # K_{r~ l}, (s_r, |l|)
        phat_l = self._phat(left)
        phat_r = self._phat(right)

        # Z = I + V W (eq. 8); GEMMs through the summation blocks.
        B_lr = vbl.matvec(phat_r)  # (s_l, s_r)
        B_rl = vbr.matvec(phat_l)  # (s_r, s_l)
        Z = np.empty((s_l + s_r, s_l + s_r))
        Z[:s_l, :s_l] = np.eye(s_l)
        Z[s_l:, s_l:] = np.eye(s_r)
        Z[:s_l, s_l:] = B_lr
        Z[s_l:, :s_l] = B_rl
        rec = self.config.recovery
        check = self.config.check_stability or rec.enabled
        anorm = float(np.linalg.norm(Z, 1)) if check else 0.0
        z_lu = lapack.lu_factor(Z)
        count_flops(2 * (s_l + s_r) ** 3 // 3, label="factor_z_lu")
        rcond = estimate_rcond(z_lu[0], anorm) if check else 1.0
        self.stability.record("reduced", node.id, rcond)
        if rec.enabled and is_breakdown(rcond, rec.rcond_breakdown):
            raise StabilityError(
                f"reduced system at node {node.id} broke down "
                f"(rcond={rcond:.2e})"
            )

        factor = InternalFactor(
            z_lu=z_lu,
            s_l=s_l,
            s_r=s_r,
            vblock_l=vbl,
            vblock_r=vbr,
            phat=None,
            rcond=rcond,
        )
        self.node_factors[node.id] = factor

        if h.skeletons.is_skeletonized(node.id):
            if self.config.method == "nlog2n":
                factor.phat = self._phat_recursive(node)
            else:
                factor.phat = self._phat_telescoped(node, factor, phat_l, phat_r)

    def _factor_node(self, node: Node) -> None:
        """Factor one node; a breakdown takes recovery rung 1 if armed.

        Rung 1 bumps lambda on the offending subtree's diagonal blocks
        and re-factorizes just that subtree (its children are already
        factored).  Exhaustion re-raises for robust_factorize's higher
        rungs.
        """
        try:
            if self.hmatrix.tree.is_leaf(node):
                self._factor_leaf(node)
            else:
                self._factor_internal(node)
        except StabilityError:
            if not self.config.recovery.enabled:
                raise
            self._recover_node(node)

    # ------------------------------------------------------------------
    # level-synchronous batched construction (repro.perf.levelbatch)
    # ------------------------------------------------------------------
    def _factor_level_batched(
        self,
        nodes: list[Node],
        level: int,
        policy: levelbatch.BatchPolicy,
        deadline,
    ) -> None:
        """Factor one tree level with shape-batched stacked numerics.

        Deadline charges land per node (same units and tags as the
        per-node loop) before any numerics run, so a deadline trips at
        the level boundary instead of mid-stack.  Nodes in groups too
        small or ragged to batch — and nodes whose ``V`` blocks the
        cache policy keeps matrix-free — go through ``_factor_node``
        unchanged.  Broken-down nodes are collected and re-run through
        the recovery ladder afterwards, in node order; the recovered
        subtrees are disjoint, so deferral is value-identical to the
        per-node path's recover-on-the-spot.
        """
        if deadline is not None:
            for node in nodes:
                deadline.charge(1, f"factorize.node({node.id})")
        tree = self.hmatrix.tree
        stacks = self.level_stacks.setdefault(level, [])
        leaves = [n for n in nodes if tree.is_leaf(n)]
        internals = [n for n in nodes if not tree.is_leaf(n)]
        pernode: list[Node] = []
        broken: list[tuple[Node, StabilityError]] = []
        if leaves:
            pn, br = self._factor_leaves_batched(leaves, policy, stacks)
            pernode.extend(pn)
            broken.extend(br)
        if internals:
            pn, br = self._factor_internals_batched(internals, policy, stacks)
            pernode.extend(pn)
            broken.extend(br)
        if not stacks:
            del self.level_stacks[level]
        registry().counter("levelbatch.nodes").inc(len(nodes) - len(pernode))
        registry().counter("levelbatch.fallback").inc(len(pernode))
        for node in pernode:
            self._factor_node(node)
        for node, exc in broken:
            if not self.config.recovery.enabled:
                raise exc
            self._recover_node(node)
        # shape groups insert factors out of node order; restore the
        # per-node visit order so order-dependent float accumulations
        # over the dicts (slogdet's log sum) stay bitwise identical.
        for node in nodes:
            if node.id in self.leaf_factors:
                self.leaf_factors[node.id] = self.leaf_factors.pop(node.id)
            else:
                self.node_factors[node.id] = self.node_factors.pop(node.id)

    def _factor_leaves_batched(
        self,
        leaves: list[Node],
        policy: levelbatch.BatchPolicy,
        stacks: list[np.ndarray],
    ) -> tuple[list[Node], list[tuple[Node, StabilityError]]]:
        """Stacked counterpart of :meth:`_factor_leaf` for one level."""
        h = self.hmatrix
        sset = h.skeletons
        rec = self.config.recovery
        check = self.config.check_stability or rec.enabled
        pernode: list[Node] = []
        broken: list[tuple[Node, StabilityError]] = []
        groups = levelbatch.group_by_key(
            leaves,
            lambda leaf: (
                leaf.size,
                sset[leaf.id].rank if sset.is_skeletonized(leaf.id) else -1,
            ),
        )
        for (m, s), idxs in groups.items():
            members = [leaves[i] for i in idxs]
            g = len(members)
            if m == 0 or not policy.worth(g, m * m, calls_saved=8):
                pernode.extend(members)
                continue
            A = h.leaf_blocks_stacked(members)
            idx = np.arange(m)
            lam = self.lam + np.array(
                [self._lam_extra.get(leaf.id, 0.0) for leaf in members]
            )
            A[:, idx, idx] += lam[:, None]
            anorms = levelbatch.one_norms_stacked(A) if check else np.zeros(g)
            for i, leaf in enumerate(members):
                self._leaf_anorms[leaf.id] = float(anorms[i])
            phat = None
            if s >= 0:
                # F-sliced right-hand sides let dgetrs solve in place.
                P = np.empty((g, s, m)).transpose(0, 2, 1)
                for i, leaf in enumerate(members):
                    P[i] = sset[leaf.id].proj.T
                lu, piv, phat = lapack.lu_factor_solve_batched(
                    A, P, overwrite_b=True
                )
                count_flops(g * (2 * m**3 // 3), label="factor_leaf_lu")
                count_flops(g * 2 * m**2 * s, label="factor_leaf_phat")
            else:
                lu, piv = lapack.lu_factor_batched(A)
                count_flops(g * (2 * m**3 // 3), label="factor_leaf_lu")
            stacks.extend([lu, piv] + ([phat] if phat is not None else []))
            rconds = (
                estimate_rcond_batched(lu, anorms) if check else np.ones(g)
            )
            for i, leaf in enumerate(members):
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
                        (
                            leaf,
                            StabilityError(
                                f"leaf block {leaf.id} broke down "
                                f"(rcond={rcond:.2e})"
                            ),
                        )
                    )
        return pernode, broken

    def _factor_internals_batched(
        self,
        nodes: list[Node],
        policy: levelbatch.BatchPolicy,
        stacks: list[np.ndarray],
    ) -> tuple[list[Node], list[tuple[Node, StabilityError]]]:
        """Stacked counterpart of :meth:`_factor_internal` for one level.

        Groups by the full operand-shape tuple, materializes the
        children's ``V`` blocks through the cache (honoring its
        store-vs-recompute policy — a declined block drops the node to
        the per-node matrix-free path), then issues one stacked GEMM /
        LU / solve per step of eq. (8) and eq. (10).  Flops and memory
        ops are charged with the per-node labels and totals.
        """
        h = self.hmatrix
        tree = h.tree
        sset = h.skeletons
        rec = self.config.recovery
        check = self.config.check_stability or rec.enabled
        low = self.config.storage == "low"
        pernode: list[Node] = []
        broken: list[tuple[Node, StabilityError]] = []

        def node_key(node: Node):
            left, right = tree.children(node)
            return (
                left.size,
                right.size,
                sset[left.id].rank,
                sset[right.id].rank,
                sset[node.id].rank if sset.is_skeletonized(node.id) else -1,
            )

        groups = levelbatch.group_by_key(nodes, node_key)
        for (nl, nr, s_l, s_r, s_a), idxs in groups.items():
            members = [nodes[i] for i in idxs]
            g = len(members)
            s = s_l + s_r
            item_words = s * s + s_l * nr + s_r * nl + max(s_a, 0) * (nl + nr)
            if not policy.worth(g, item_words, calls_saved=12):
                pernode.extend(members)
                continue
            children = [tree.children(n) for n in members]
            vbls = [h.sibling_block(l) for l, _ in children]
            vbrs = [h.sibling_block(r) for _, r in children]
            K_l = h.materialize_blocks(vbls)  # K_{l~ r}, (s_l, |r|)
            K_r = h.materialize_blocks(vbrs)  # K_{r~ l}, (s_r, |l|)
            keep = [
                i for i in range(g) if K_l[i] is not None and K_r[i] is not None
            ]
            if len(keep) < g:
                kept = set(keep)
                pernode.extend(members[i] for i in range(g) if i not in kept)
                if len(keep) < 2:
                    pernode.extend(members[i] for i in keep)
                    continue
                members = [members[i] for i in keep]
                children = [children[i] for i in keep]
                vbls = [vbls[i] for i in keep]
                vbrs = [vbrs[i] for i in keep]
                K_l = [K_l[i] for i in keep]
                K_r = [K_r[i] for i in keep]
                g = len(members)
            K_lr = np.stack(K_l)
            K_rl = np.stack(K_r)
            phat_l = self._gather_phats([l for l, _ in children])
            phat_r = self._gather_phats([r for _, r in children])

            # Z = I + V W (eq. 8), one stacked GEMM per off-diagonal block.
            B_lr = np.matmul(K_lr, phat_r)  # (g, s_l, s_r)
            B_rl = np.matmul(K_rl, phat_l)  # (g, s_r, s_l)
            count_flops(g * 2 * s_l * nr * s_r, label="summation_gemv")
            count_mops(g * (s_l * nr + nr * s_r + s_l * s_r))
            count_flops(g * 2 * s_r * nl * s_l, label="summation_gemv")
            count_mops(g * (s_r * nl + nl * s_l + s_r * s_l))
            # With stability checks off, F-sliced storage lets the LU
            # factor Z in place; the 1-norm estimate must read a
            # C-ordered stack (summation order is layout-dependent, and
            # the per-node reference norm runs on C-ordered blocks).
            if check:
                Z = np.zeros((g, s, s))
            else:
                Z = np.zeros((g, s, s)).transpose(0, 2, 1)
            di = np.arange(s)
            Z[:, di, di] = 1.0
            Z[:, :s_l, s_l:] = B_lr
            Z[:, s_l:, :s_l] = B_rl
            anorms = levelbatch.one_norms_stacked(Z) if check else np.zeros(g)
            y = None
            if s_a >= 0:
                # eq. (10) telescoping, one stacked GEMM per step; the
                # reduced solve fuses with the LU below (one locked pass).
                projT_l = np.empty((g, s_l, s_a))
                projT_r = np.empty((g, s_r, s_a))
                for i, node in enumerate(members):
                    proj = sset[node.id].proj  # (s_a, s_l + s_r)
                    projT_l[i] = proj[:, :s_l].T
                    projT_r[i] = proj[:, s_l:].T
                G_l = np.matmul(phat_l, projT_l)  # (g, |l|, s_a)
                G_r = np.matmul(phat_r, projT_r)  # (g, |r|, s_a)
                count_flops(
                    g * 2 * s_a * (nl * s_l + nr * s_r),
                    label="factor_telescope",
                )
                t_top = np.matmul(K_lr, G_r)
                t_bot = np.matmul(K_rl, G_l)
                count_flops(g * 2 * s_l * nr * s_a, label="summation_gemv")
                count_mops(g * (s_l * nr + nr * s_a + s_l * s_a))
                count_flops(g * 2 * s_r * nl * s_a, label="summation_gemv")
                count_mops(g * (s_r * nl + nl * s_a + s_r * s_a))
                t = np.empty((g, s_a, s)).transpose(0, 2, 1)
                t[:, :s_l] = t_top
                t[:, s_l:] = t_bot
                z_lu, z_piv, y = lapack.lu_factor_solve_batched(
                    Z, t, overwrite_a=not check, overwrite_b=True
                )
                count_flops(g * 2 * s**2 * s_a, label="factor_z_solve")
            else:
                z_lu, z_piv = lapack.lu_factor_batched(Z, overwrite_a=not check)
            count_flops(g * (2 * s**3 // 3), label="factor_z_lu")
            stacks.extend([z_lu, z_piv])
            rconds = (
                estimate_rcond_batched(z_lu, anorms) if check else np.ones(g)
            )
            factors: list[InternalFactor] = []
            for i, node in enumerate(members):
                rcond = float(rconds[i])
                self.stability.record("reduced", node.id, rcond)
                factor = InternalFactor(
                    z_lu=(z_lu[i], z_piv[i]),
                    s_l=s_l,
                    s_r=s_r,
                    vblock_l=vbls[i],
                    vblock_r=vbrs[i],
                    phat=None,
                    rcond=rcond,
                )
                self.node_factors[node.id] = factor
                factors.append(factor)
                if rec.enabled and is_breakdown(rcond, rec.rcond_breakdown):
                    broken.append(
                        (
                            node,
                            StabilityError(
                                f"reduced system at node {node.id} broke down "
                                f"(rcond={rcond:.2e})"
                            ),
                        )
                    )

            if s_a >= 0:
                top = G_l - np.matmul(phat_l, y[:, :s_l])
                bot = G_r - np.matmul(phat_r, y[:, s_l:])
                count_flops(
                    g * 2 * s_a * (nl * s_l + nr * s_r),
                    label="factor_telescope",
                )
                phat = np.concatenate([top, bot], axis=1)
                if low:
                    # low-storage mode releases internal P^ blocks right
                    # after the parent level; per-node copies keep that
                    # release effective (a stack would stay pinned by any
                    # surviving frontier view).
                    for i, factor in enumerate(factors):
                        factor.phat = phat[i].copy()
                else:
                    stacks.append(phat)
                    for i, factor in enumerate(factors):
                        factor.phat = phat[i]
                    for i, node in enumerate(members):
                        self._phat_slots[node.id] = (phat, i, factors[i].phat)
        return pernode, broken

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

    def _refactor_subtree(self, node: Node) -> None:
        """Re-factorize ``node``'s subtree bottom-up with current lambdas.

        Only the subtree is redone: skeletons, sibling blocks, and every
        factor outside it are untouched — the checkpointed-skeleton
        property that makes recovery local.
        """
        tree = self.hmatrix.tree
        for n in self._subtree_nodes(node):
            if tree.is_leaf(n):
                self._factor_leaf(n)
            else:
                self._factor_internal(n)

    def _recover_node(self, node: Node) -> None:
        """Lambda-bump ladder for a broken-down block at ``node``.

        Bumps the regularization on the subtree's diagonal (leaf) blocks
        — first by ``lambda_bump0`` relative to each leaf's 1-norm, then
        geometrically — re-factorizing just that subtree each attempt.
        Raises :class:`~repro.exceptions.StabilityError` when the bump
        budget is exhausted (the caller escalates to the next rung).
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
                self._refactor_subtree(node)
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
    # checkpoint payloads (repro.checkpoint/v1, level granularity)
    # ------------------------------------------------------------------
    def export_level_payload(self, level: int) -> dict:
        """Serializable factors of one completed tree level.

        The :class:`KernelSummation` sibling blocks are *excluded* —
        they hold cache handles and are rebuilt deterministically from
        the H-matrix on restore (kernel evaluation is pure), which keeps
        payloads small and decouples them from cache state.
        """
        tree = self.hmatrix.tree
        leaves: dict[int, dict] = {}
        internals: dict[int, dict] = {}
        for nid, lf in self.leaf_factors.items():
            if tree.node(nid).level != level:
                continue
            leaves[nid] = {
                "lu": lf.lu[0],
                "piv": lf.lu[1],
                "phat": lf.phat,
                "rcond": lf.rcond,
                "anorm": self._leaf_anorms.get(nid, 0.0),
                "lam_extra": self._lam_extra.get(nid, 0.0),
            }
        for nid, nf in self.node_factors.items():
            if tree.node(nid).level != level:
                continue
            internals[nid] = {
                "z_lu": nf.z_lu[0],
                "piv": nf.z_lu[1],
                "s_l": nf.s_l,
                "s_r": nf.s_r,
                "phat": nf.phat,
                "rcond": nf.rcond,
            }
        events = [
            e
            for e in self.recovery_events
            if tree.node(e["node_id"]).level == level
        ]
        return {
            "level": level,
            "lam": self.lam,
            "leaves": leaves,
            "internals": internals,
            "recovery_events": events,
        }

    def restore_level_payload(self, payload: dict) -> None:
        """Transplant one level's factors back (inverse of export).

        Sibling ``V`` blocks are re-derived from the H-matrix; stability
        records are replayed so reports stay faithful across a resume.
        """
        h = self.hmatrix
        tree = h.tree
        for nid, d in payload["leaves"].items():
            self.leaf_factors[nid] = LeafFactor(
                lu=(d["lu"], d["piv"]), phat=d["phat"], rcond=d["rcond"]
            )
            self._leaf_anorms[nid] = d["anorm"]
            if d["lam_extra"]:
                self._lam_extra[nid] = d["lam_extra"]
            self.stability.record("leaf", nid, d["rcond"])
        for nid, d in payload["internals"].items():
            left, right = tree.children(tree.node(nid))
            self.node_factors[nid] = InternalFactor(
                z_lu=(d["z_lu"], d["piv"]),
                s_l=d["s_l"],
                s_r=d["s_r"],
                vblock_l=h.sibling_block(left),
                vblock_r=h.sibling_block(right),
                phat=d["phat"],
                rcond=d["rcond"],
            )
            self.stability.record("reduced", nid, d["rcond"])
        self.recovery_events.extend(payload.get("recovery_events", []))
        self.completed_levels.add(payload["level"])

    def export_node_payload(self, node_id: int) -> dict:
        """Serializable factors of one node (task-DAG granularity).

        Same shape as one entry of :meth:`export_level_payload`: the
        :class:`KernelSummation` sibling blocks are excluded and
        re-derived on restore (kernel evaluation is pure), so the
        payload is a handful of dense arrays that travel cheaply
        between the task-parallel executor's worker processes.
        """
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
        }

    def restore_node_payload(self, payload: dict) -> None:
        """Transplant one node's factors back (inverse of export).

        Idempotent: a node already present is left untouched (a DAG
        worker that factored a child locally skips the shipped copy
        without double-recording its stability entry).
        """
        h = self.hmatrix
        nid = payload["node_id"]
        if payload["kind"] == "leaf":
            if nid in self.leaf_factors:
                return
            self.leaf_factors[nid] = LeafFactor(
                lu=(payload["lu"], payload["piv"]),
                phat=payload["phat"],
                rcond=payload["rcond"],
            )
            self._leaf_anorms[nid] = payload["anorm"]
            if payload["lam_extra"]:
                self._lam_extra[nid] = payload["lam_extra"]
            self.stability.record("leaf", nid, payload["rcond"])
            return
        if nid in self.node_factors:
            return
        left, right = h.tree.children(h.tree.node(nid))
        self.node_factors[nid] = InternalFactor(
            z_lu=(payload["z_lu"], payload["piv"]),
            s_l=payload["s_l"],
            s_r=payload["s_r"],
            vblock_l=h.sibling_block(left),
            vblock_r=h.sibling_block(right),
            phat=payload["phat"],
            rcond=payload["rcond"],
        )
        self.stability.record("reduced", nid, payload["rcond"])

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
        results follow operand strides and a layout flip here would
        silently break bitwise parity with the per-node path.
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
    def _drop_internal_phats(self, level: int) -> None:
        """Release P^ of internal non-frontier nodes at ``level``."""
        frontier_ids = {f.id for f in self.hmatrix.frontier}
        tree = self.hmatrix.tree
        for nid, factor in self.node_factors.items():
            node = tree.node(nid)
            if node.level == level and nid not in frontier_ids:
                factor.phat = None

    def _materialize_phats(self) -> list[InternalFactor]:
        """Re-telescope dropped internal P^ blocks (bottom-up, eq. 10).

        Returns the factors that were restored so the caller can release
        them again after the solve.
        """
        tree = self.hmatrix.tree
        restored: list[InternalFactor] = []
        missing = [
            (tree.node(nid), factor)
            for nid, factor in self.node_factors.items()
            if factor.phat is None
            and self.hmatrix.skeletons.is_skeletonized(nid)
        ]
        for node, factor in sorted(missing, key=lambda nf: -nf[0].level):
            left, right = tree.children(node)
            factor.phat = self._phat_telescoped(
                node, factor, self._phat(left), self._phat(right)
            )
            restored.append(factor)
        return restored

    @staticmethod
    def _release_phats(restored: list[InternalFactor]) -> None:
        for factor in restored:
            factor.phat = None

    def _phat_telescoped(
        self,
        node: Node,
        factor: InternalFactor,
        phat_l: np.ndarray,
        phat_r: np.ndarray,
    ) -> np.ndarray:
        """Eq. (10): P^_alpha from the children's P^ — no recursion."""
        proj = self.hmatrix.skeletons[node.id].proj  # (s_a, s_l + s_r)
        s_l = factor.s_l
        G_l = phat_l @ proj[:, :s_l].T  # (|l|, s_a)
        G_r = phat_r @ proj[:, s_l:].T  # (|r|, s_a)
        count_flops(
            2 * proj.shape[0] * (phat_l.size + phat_r.size), label="factor_telescope"
        )
        t = np.vstack(
            [factor.vblock_l.matvec(G_r), factor.vblock_r.matvec(G_l)]
        )
        y = lapack.lu_solve(factor.z_lu, t)
        count_flops(2 * t.shape[0] ** 2 * t.shape[1], label="factor_z_solve")
        top = G_l - phat_l @ y[:s_l]
        bot = G_r - phat_r @ y[s_l:]
        count_flops(
            2 * proj.shape[0] * (phat_l.size + phat_r.size), label="factor_telescope"
        )
        return np.vstack([top, bot])

    def _phat_recursive(self, node: Node) -> np.ndarray:
        """INV-ASKIT [36]: P^_alpha = Solve(alpha, P_alpha, recurse=True).

        Forms the explicit telescoped basis ``P_{alpha alpha~}`` and
        runs the full recursive subtree solve — the O(N log^2 N) path.
        """
        P = self.hmatrix.skeletons.telescoped_basis(node)
        count_flops(2 * P.size * self.hmatrix.skeletons[node.id].rank, label="factor_basis")
        return self.solve_subtree(node, P)

    # ------------------------------------------------------------------
    def _build_reduced(self) -> None:
        """Coalesced frontier system (section II-C / root of Alg. II.2)."""
        h = self.hmatrix
        frontier = h.frontier
        slices: dict[int, slice] = {}
        offset = 0
        for f in frontier:
            s = h.skeletons[f.id].rank
            slices[f.id] = slice(offset, offset + s)
            offset += s
        size = offset
        method = SummationMethod(self.config.summation)

        # off-diagonal pair blocks K_{f~ g}; sibling pairs reuse the
        # blocks the per-node factorization already built/cached, the
        # rest come from the H-matrix's block cache (shared across
        # factorizations of the same matrix).
        pair_blocks: dict[tuple[int, int], KernelSummation] = {}
        for f in frontier:
            for g in frontier:
                if f.id == g.id:
                    continue
                if g.id == f.sibling_id:
                    pair_blocks[(f.id, g.id)] = h.sibling_block(f)
                else:
                    pair_blocks[(f.id, g.id)] = h.pair_block(f, g, method)

        z_lu = None
        rcond = 1.0
        if self.config.method != "hybrid":
            Z = np.eye(size)
            handled: set[tuple[int, int]] = set()
            if self._batch_policy is not None and len(frontier) > 1:
                handled = self._assemble_reduced_batched(
                    Z, slices, frontier, pair_blocks, self._batch_policy
                )
            for g in frontier:
                phat_g = self._phat(g)
                for f in frontier:
                    if f.id == g.id or (f.id, g.id) in handled:
                        continue
                    Z[slices[f.id], slices[g.id]] += pair_blocks[
                        (f.id, g.id)
                    ].matvec(phat_g)
            rec = self.config.recovery
            check = self.config.check_stability or rec.enabled
            anorm = float(np.linalg.norm(Z, 1)) if check else 0.0
            z_lu = lapack.lu_factor(Z)
            count_flops(2 * size**3 // 3, label="factor_reduced_lu")
            rcond = estimate_rcond(z_lu[0], anorm) if check else 1.0
            self.stability.record("frontier", 1, rcond)
            if rec.enabled and is_breakdown(rcond, rec.rcond_breakdown):
                # no local fix exists for the coalesced system — the
                # caller (robust_factorize) descends the frontier and
                # retries with the hybrid method.
                raise StabilityError(
                    f"coalesced frontier system broke down (rcond={rcond:.2e})"
                )

        self.reduced = ReducedSystem(
            frontier=frontier,
            slices=slices,
            size=size,
            pair_blocks=pair_blocks,
            z_lu=z_lu,
            rcond=rcond,
        )

    def _assemble_reduced_batched(
        self,
        Z: np.ndarray,
        slices: dict[int, slice],
        frontier: list[Node],
        pair_blocks: dict[tuple[int, int], KernelSummation],
        policy: levelbatch.BatchPolicy,
    ) -> set[tuple[int, int]]:
        """Stacked assembly of the same-shaped frontier pair products.

        Returns the ``(f.id, g.id)`` pairs it accumulated into ``Z`` so
        the per-pair loop skips them; the remaining (ragged or cache-
        declined) pairs keep the matrix-free ``matvec`` path.  The
        scatter targets are disjoint, so the accumulation is bitwise
        identical to the per-pair loop regardless of order.
        """
        h = self.hmatrix
        sset = h.skeletons
        done: set[tuple[int, int]] = set()
        pairs = [(f, g) for g in frontier for f in frontier if f.id != g.id]
        groups = levelbatch.group_by_key(
            pairs,
            lambda fg: (sset[fg[0].id].rank, fg[1].size, sset[fg[1].id].rank),
        )
        for (s_f, ng, s_g), idxs in groups.items():
            if not policy.worth(
                len(idxs), s_f * ng + ng * s_g, calls_saved=6
            ):
                continue
            members = [pairs[i] for i in idxs]
            blocks = h.materialize_blocks(
                [pair_blocks[(f.id, g.id)] for f, g in members]
            )
            keep = [i for i, blk in enumerate(blocks) if blk is not None]
            if len(keep) < 2:
                continue
            K = np.stack([blocks[i] for i in keep])
            phat_g = np.stack([self._phat(members[i][1]) for i in keep])
            prod = np.matmul(K, phat_g)
            n_keep = len(keep)
            count_flops(n_keep * 2 * s_f * ng * s_g, label="summation_gemv")
            count_mops(n_keep * (s_f * ng + ng * s_g + s_f * s_g))
            for pos, i in enumerate(keep):
                f, g = members[i]
                Z[slices[f.id], slices[g.id]] += prod[pos]
                done.add((f.id, g.id))
        return done

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def solve_subtree(self, node: Node, u: np.ndarray) -> np.ndarray:
        """Algorithm II.3: ``w = (lambda I + K~_{node node})^{-1} u``.

        ``node`` must be at or below the frontier.  ``u`` is indexed by
        the node's points (shape ``(|node|,)`` or ``(|node|, k)``).
        """
        tree = self.hmatrix.tree
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
        t_top = factor.vblock_l.matvec(w_r)
        t_bot = factor.vblock_r.matvec(w_l)
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

    def _apply_v(self, x: np.ndarray) -> np.ndarray:
        """``V x``: frontier-skeleton rows against all out-of-node points."""
        assert self.reduced is not None
        red = self.reduced
        t = (
            np.zeros(red.size)
            if x.ndim == 1
            else np.zeros((red.size, x.shape[1]))
        )
        for f in red.frontier:
            acc = t[red.slices[f.id]]
            for g in red.frontier:
                if f.id == g.id:
                    continue
                acc += red.pair_blocks[(f.id, g.id)].matvec(x[g.lo : g.hi])
        return t

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
        """``(I + V W^) y`` — the hybrid method's GMRES operator."""
        return y + self._apply_v(self._apply_what(y))

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
        if self.config.batch_rhs:
            # one lockstep GMRES iteration per matvec: every pair block
            # sees the whole (size, k) panel at once (BLAS-3).
            results = gmres_batched(self.reduced_matvec, t, cfg)
            for res in results:
                self.reduced_iterations.append(res.n_iters)
                self.reduced_histories.append(res.residuals)
            return np.stack([res.x for res in results], axis=1)
        cols = []
        for j in range(t.shape[1]):
            res = gmres(self.reduced_matvec, t[:, j], cfg)
            self.reduced_iterations.append(res.n_iters)
            self.reduced_histories.append(res.residuals)
            cols.append(res.x)
        return np.stack(cols, axis=1)

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
                y = self._solve_reduced(self._apply_v(x))
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
        """Persistent float64 words held by the factorization."""
        total = 0
        for lf in self.leaf_factors.values():
            total += lf.lu[0].size
            if lf.phat is not None:
                total += lf.phat.size
        for nf in self.node_factors.values():
            total += nf.z_lu[0].size
            total += nf.vblock_l.storage_words + nf.vblock_r.storage_words
            if nf.phat is not None:
                total += nf.phat.size
        if self.reduced is not None:
            counted = set()
            for nf in self.node_factors.values():
                counted.add(id(nf.vblock_l))
                counted.add(id(nf.vblock_r))
            for block in self.reduced.pair_blocks.values():
                if id(block) not in counted:  # sibling blocks counted above
                    total += block.storage_words
                    counted.add(id(block))
            if self.reduced.z_lu is not None:
                total += self.reduced.z_lu[0].size
        return total


def factorize(
    hmatrix: HMatrix,
    lam: float = 0.0,
    config: SolverConfig | None = None,
    *,
    deadline=None,
    resume_levels: dict[int, dict] | None = None,
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
    resume_levels:
        ``{level: payload}`` from :meth:`export_level_payload` — the
        contiguous deepest levels are transplanted instead of recomputed
        (resume-from-checkpoint; contiguity is enforced here, so a gap
        falls back to recomputing).
    resume_nodes:
        ``{node_id: payload}`` from :meth:`export_node_payload` — *node*
        granularity transplant for incremental updates: clean-subtree
        factors are restored verbatim (their inputs are unchanged, so a
        recompute would be bitwise identical) and only the remaining
        dirty nodes are factored.  Unlike ``resume_levels`` no
        contiguity is required — validity is the caller's contract that
        every resumed node's *entire subtree* is unchanged.  Restored
        nodes charge no deadline work and skip level stacking
        (:func:`repro.perf.levelbatch.partition_resume`).
    on_level:
        ``on_level(level, fact)`` called after each freshly computed
        level (the checkpoint write hook).
    partial_sink:
        When given, the factorization-in-progress is appended *before*
        work starts, so a caller catching ``DeadlineExceededError`` can
        inspect ``completed_levels`` and transplant the finished factors
        (degradation rung 2).

    Returns
    -------
    HierarchicalFactorization

    Warns
    -----
    StabilityWarning
        When a diagonal block or reduced system is ill-conditioned past
        ``config.cond_threshold`` (paper section III detection).
    """
    from repro.resilience.deadline import current_deadline

    config = config or SolverConfig()
    if lam < 0:
        raise ValueError(f"lambda must be >= 0; got {lam}")
    if deadline is None:
        deadline = current_deadline()
    fact = HierarchicalFactorization(hmatrix, lam, config)
    # level-synchronous batching: the batched path is bitwise identical
    # to the per-node path (see repro.perf.levelbatch), so this is purely
    # an execution-strategy choice.  nlog2n's recursive P^ has no stacked
    # form; it always runs per node.
    if (
        config.level_batch
        and config.method != "nlog2n"
        and levelbatch.batching_enabled()
    ):
        fact._batch_policy = levelbatch.BatchPolicy.current()
    if partial_sink is not None:
        partial_sink.append(fact)
    tree = hmatrix.tree

    if tree.depth == 0:
        fact._factor_node(tree.root)
        fact.completed_levels.add(0)
        fact._factored = True
        fact.stability.warn_if_unstable()
        return fact

    # bottom-up over nodes at/below the frontier (level-wise postorder).
    below = hmatrix._nodes_at_or_below_frontier()
    by_level: dict[int, list[Node]] = {}
    for node in below:
        by_level.setdefault(node.level, []).append(node)
    levels = sorted(by_level, reverse=True)
    # resume: transplant the contiguous deepest checkpointed levels; a
    # gap means the shallower payloads may depend on recomputed factors,
    # so they are discarded and recomputed.
    restorable = True
    for level in levels:
        if restorable and resume_levels and level in resume_levels:
            fact.restore_level_payload(resume_levels[level])
            continue
        restorable = False
        members = by_level[level]
        todo = members
        restored: list[Node] = []
        if resume_nodes:
            todo, restored = levelbatch.partition_resume(members, resume_nodes)
            for node in restored:
                fact.restore_node_payload(resume_nodes[node.id])
        with span(
            "factorize.level",
            attrs={"level": level, "nodes": len(todo)},
        ):
            if fact._batch_policy is not None and todo:
                fact._factor_level_batched(
                    todo,
                    level,
                    fact._batch_policy,
                    deadline,
                )
            else:
                for node in todo:
                    if deadline is not None:
                        deadline.charge(1, f"factorize.node({node.id})")
                    fact._factor_node(node)
        if restored:
            fact.nodes_resumed += len(restored)
            # restores and computes interleave out of node order; restore
            # the per-node visit order so order-dependent accumulations
            # over the factor dicts (slogdet) stay bitwise identical to
            # a from-scratch factorization of the same H-matrix.
            for node in members:
                if node.id in fact.leaf_factors:
                    fact.leaf_factors[node.id] = fact.leaf_factors.pop(node.id)
                else:
                    fact.node_factors[node.id] = fact.node_factors.pop(node.id)
        fact.completed_levels.add(level)
        if on_level is not None:
            on_level(level, fact)
        if config.storage == "low" and level + 1 in by_level:
            # the level just below is no longer needed: its P^ blocks fed
            # this level's Z and telescoping (paper section III memory
            # scheme) — keep only leaf and frontier P^ persistent.
            fact._drop_internal_phats(level + 1)

    if deadline is not None:
        deadline.check("factorize.reduced")
    with span("factorize.reduced", attrs={"frontier": len(hmatrix.frontier)}):
        fact._build_reduced()
    if config.storage == "low":
        for level in levels:
            fact._drop_internal_phats(level)
    fact._factored = True
    fact.stability.warn_if_unstable()
    return fact
