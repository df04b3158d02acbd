"""Bottom-up skeletonization of the ball tree (Algorithm II.1).

Leaves are skeletonized from their own points; an internal node's
candidate columns are the concatenation of its children's skeletons
``[l~ r~]``, so skeletons *nest* and the projection chain telescopes.
The root is never skeletonized (it has no off-diagonal rows).

Level restriction ``L`` and the adaptive stopping rule
(``alpha~ = l~ u r~`` means no compression happened) both leave nodes
unskeletonized; the *frontier* of deepest skeletonized nodes is what
the hybrid solver factorizes up to (section II-C).

All indices here are tree-permuted positions into ``tree.points``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import SkeletonConfig
from repro.exceptions import NotSkeletonizedError
from repro.kernels.base import Kernel
from repro.sampling.importance import RowSampler
from repro.sampling.neighbors import NeighborTable, approximate_knn
from repro.skeleton.id import interpolative_decomposition
from repro.tree.balltree import BallTree
from repro.tree.node import Node
from repro.util.random import as_generator

__all__ = ["NodeSkeleton", "SkeletonSet", "skeletonize"]


@dataclass
class NodeSkeleton:
    """Skeleton data of one node.

    Attributes
    ----------
    node_id:
        Heap id of the node.
    skeleton:
        Tree positions of the skeleton points ``alpha~``, shape (s,).
    candidates:
        Tree positions of the candidate columns the ID chose from: the
        node's own points (leaf) or ``[l~ r~]`` (internal).
    proj:
        ``P_{alpha~, candidates}``, shape (s, |candidates|), such that
        ``K_{S cand} ~= K_{S alpha~} @ proj``.
    achieved_tol:
        First discarded R-diagonal ratio from the ID.
    """

    node_id: int
    skeleton: np.ndarray
    candidates: np.ndarray
    proj: np.ndarray
    achieved_tol: float

    @property
    def rank(self) -> int:
        return len(self.skeleton)


@dataclass
class SkeletonSet:
    """All node skeletons of a tree plus the restriction bookkeeping."""

    tree: BallTree
    config: SkeletonConfig
    skeletons: dict[int, NodeSkeleton] = field(default_factory=dict)
    #: effective restriction level actually used (min(L, depth), >= 1
    #: unless the tree is a single leaf).
    effective_level: int = 1
    #: degradation rungs taken under deadline pressure (rung 1,
    #: "coarsen"): dicts with stage/level/tau/pressure keys.
    degradation_events: list[dict] = field(default_factory=list)

    def is_skeletonized(self, node_id: int) -> bool:
        return node_id in self.skeletons

    def __getitem__(self, node_id: int) -> NodeSkeleton:
        try:
            return self.skeletons[node_id]
        except KeyError:
            raise NotSkeletonizedError(
                f"node {node_id} has no skeleton (level restriction or "
                "adaptive stop); use the hybrid solver"
            ) from None

    def rank_of(self, node_id: int) -> int:
        return self[node_id].rank

    def frontier(self) -> list[Node]:
        """Deepest skeletonized antichain (the paper's frontier ``A``).

        Nodes that are skeletonized but whose parent is not (children of
        the root count, since the root is never skeletonized).  The
        frontier partitions the point set.
        """
        from repro.skeleton.frontier import compute_frontier

        return compute_frontier(self)

    def total_frontier_rank(self) -> int:
        """Size of the coalesced reduced system ``sum_{f in A} s_f``."""
        return sum(self[f.id].rank for f in self.frontier())

    def telescoped_basis(self, node: Node) -> np.ndarray:
        """Explicit ``P_{alpha alpha~}`` (|alpha| x s), points-to-skeleton.

        Built by telescoping the per-level projections down to the
        leaves (eq. 9's right factor chain).  Used by the dense
        assembly, the O(N log^2 N) baseline, and tests; the O(N log N)
        factorization never forms it.
        """
        sk = self[node.id]
        if self.tree.is_leaf(node):
            return sk.proj.T.copy()
        left, right = self.tree.children(node)
        sl = self[left.id].rank
        Pl = self.telescoped_basis(left)
        Pr = self.telescoped_basis(right)
        top = Pl @ sk.proj[:, :sl].T
        bot = Pr @ sk.proj[:, sl:].T
        return np.vstack([top, bot])


def prepare_sampling(
    tree: BallTree,
    config: SkeletonConfig,
    neighbors: NeighborTable | None = None,
) -> tuple[RowSampler, NeighborTable | None]:
    """Derive the neighbor table and row sampler from ``config.seed``.

    Factored out so the serial and distributed skeletonizations draw
    the *same* seeds (and hence build identical skeletons).
    """
    rng = as_generator(config.seed)
    if neighbors is None and config.num_neighbors > 0 and tree.n_points > 2:
        neighbors = approximate_knn(
            tree.points,
            min(config.num_neighbors, tree.n_points - 1),
            seed=int(rng.integers(2**31)),
        )
    elif config.num_neighbors > 0 and tree.n_points > 2:
        rng.integers(2**31)  # keep the seed stream aligned
    sampler = RowSampler(
        tree.n_points,
        neighbors,
        config.num_samples,
        seed=int(rng.integers(2**31)),
    )
    return sampler, neighbors


def effective_level_stop(tree: BallTree, config: SkeletonConfig) -> int:
    """Shallowest level that gets skeletonized (clamped restriction)."""
    if tree.depth == 0:
        return 0
    if config.level_restriction == 0:
        return 1
    return max(1, min(config.level_restriction, tree.depth))


def skeletonize_node(
    tree: BallTree,
    kernel: Kernel,
    config: SkeletonConfig,
    sampler: RowSampler,
    node: Node,
    candidates: np.ndarray,
    norms: np.ndarray | None = None,
    rows: np.ndarray | None = None,
    sample_block: np.ndarray | None = None,
) -> NodeSkeleton | None:
    """Skeletonize one node given its candidate columns.

    Returns ``None`` when ``adaptive_stop`` triggers (no compression on
    an internal node).  Deterministic per ``(sampler seed, node id)``.
    ``norms`` are optional precomputed squared norms of ``tree.points``
    (one tree-wide table shared by every node's sample block).
    ``rows``/``sample_block`` let the level-batched driver pass a
    pre-drawn row sample and its pre-evaluated (bitwise-identical)
    sample matrix ``K_{S' cand}``; both default to computing here.
    """
    if rows is None:
        rows = sampler.sample(node)
    X = tree.points
    if sample_block is not None:
        G = sample_block
    else:
        G = (
            kernel(
                X[rows],
                X[candidates],
                norms_a=None if norms is None else norms[rows],
                norms_b=None if norms is None else norms[candidates],
            )
            if len(rows)
            else np.zeros((0, len(candidates)))
        )
    result = interpolative_decomposition(
        G,
        tau=config.tau,
        max_rank=config.max_rank,
        fixed_rank=(
            min(config.rank, len(candidates)) if config.rank is not None else None
        ),
    )
    if config.adaptive_stop and not tree.is_leaf(node) and not result.compressed:
        return None
    return NodeSkeleton(
        node_id=node.id,
        skeleton=candidates[result.skeleton],
        candidates=candidates,
        proj=result.proj,
        achieved_tol=result.achieved_tol,
    )


def _stacked_sample_blocks(
    worklist: list[tuple[Node, np.ndarray, np.ndarray]],
    kernel: Kernel,
    X: np.ndarray,
    norms: np.ndarray | None,
    policy,
) -> dict[int, np.ndarray]:
    """Batch-evaluate same-shaped sample matrices ``K_{S' cand}``.

    ``worklist`` holds one ``(node, candidates, rows)`` entry per node of
    the level; returns ``{worklist index: block}`` for the groups worth
    stacking (each slice bitwise identical to the per-node evaluation —
    see :func:`repro.perf.levelbatch.stacked_kernel_blocks`).  The ID
    itself stays per node: pivoted QR has no batched form.
    """
    from repro.perf import levelbatch

    out: dict[int, np.ndarray] = {}
    groups = levelbatch.group_by_key(
        range(len(worklist)),
        lambda i: (len(worklist[i][2]), len(worklist[i][1])),
    )
    for (r, c), idxs in groups.items():
        if r == 0 or not policy.worth(len(idxs), r * c, calls_saved=4):
            continue
        rows = np.stack([worklist[i][2] for i in idxs])
        cands = np.stack([worklist[i][1] for i in idxs])
        na = nb = None
        if norms is not None:
            na = norms[rows]
            nb = norms[cands]
        blocks = levelbatch.stacked_kernel_blocks(kernel, X[rows], X[cands], na, nb)
        for pos, i in enumerate(idxs):
            out[i] = blocks[pos]
    return out


def skeletonize(
    tree: BallTree,
    kernel: Kernel,
    config: SkeletonConfig | None = None,
    *,
    neighbors: NeighborTable | None = None,
    deadline=None,
    coarsen=None,
) -> SkeletonSet:
    """Run Algorithm II.1 bottom-up over the whole tree.

    A level's same-shaped sample matrices are evaluated in one stacked
    kernel call when :class:`~repro.perf.levelbatch.BatchPolicy` accepts
    the group (bitwise identical to per-node evaluation); the
    interpolative decompositions always run per node.

    Parameters
    ----------
    tree:
        Built :class:`BallTree`.
    kernel:
        Kernel function used for the sample blocks.
    config:
        :class:`SkeletonConfig`; defaults are adaptive rank with
        ``tau = 1e-5``.
    neighbors:
        Optional precomputed neighbor table in *tree-permuted*
        coordinates.  When ``None`` and ``config.num_neighbors > 0``, an
        approximate table is computed here.
    deadline:
        Optional :class:`repro.resilience.Deadline`; defaults to the
        one installed by :func:`repro.resilience.deadline_scope`.
    coarsen:
        Optional :class:`repro.resilience.CoarsenPolicy`.  When given,
        deadline pressure *coarsens* ``tau`` at level boundaries (rung 1
        of the degradation ladder) instead of raising — skeletonization
        always completes, because every later rung needs skeletons to
        exist.  Without it, an installed deadline raises
        :class:`~repro.exceptions.DeadlineExceededError` between nodes.

    Returns
    -------
    SkeletonSet
    """
    from repro.perf.levelbatch import BatchPolicy
    from repro.resilience.deadline import current_deadline

    config = config or SkeletonConfig()
    if deadline is None:
        deadline = current_deadline()
    sampler, neighbors = prepare_sampling(tree, config, neighbors)

    sset = SkeletonSet(tree=tree, config=config)
    if tree.depth == 0:
        # single-leaf tree: nothing to compress; the solver LU-factorizes
        # the one dense block.
        sset.effective_level = 0
        return sset

    level_stop = effective_level_stop(tree, config)
    sset.effective_level = level_stop
    norms = kernel.prepare_norms(tree.points)

    eff = config
    thresholds = list(coarsen.thresholds()) if coarsen is not None else []

    policy = BatchPolicy.current()

    for level in range(tree.depth, level_stop - 1, -1):
        if deadline is not None:
            if coarsen is not None:
                while thresholds and deadline.fraction_used() >= thresholds[0]:
                    thresholds.pop(0)
                    new_tau = min(eff.tau * coarsen.tau_factor, 0.5)
                    if new_tau <= eff.tau:
                        continue
                    sset.degradation_events.append(
                        {
                            "stage": "coarsen",
                            "level": level,
                            "tau": new_tau,
                            "pressure": round(deadline.fraction_used(), 4),
                        }
                    )
                    eff = replace(eff, tau=new_tau)
                    from repro.obs import registry

                    registry().counter("resilience.degradation", rung="coarsen").inc()
            else:
                deadline.check(f"skeletonize.level({level})")
        # pass 1: candidates and (order-independent, per-node-keyed) row
        # samples for the whole level, in node order — so the batched
        # kernel evaluation below changes nothing observable.
        worklist: list[tuple[Node, np.ndarray, np.ndarray]] = []
        for node in tree.level_nodes(level):
            if deadline is not None and coarsen is None:
                deadline.charge(1, f"skeletonize.node({node.id})")
            if tree.is_leaf(node):
                candidates = np.arange(node.lo, node.hi, dtype=np.intp)
            else:
                left, right = tree.children(node)
                if not (
                    sset.is_skeletonized(left.id) and sset.is_skeletonized(right.id)
                ):
                    continue  # adaptive stop propagated upward
                candidates = np.concatenate(
                    [sset[left.id].skeleton, sset[right.id].skeleton]
                )
            worklist.append((node, candidates, sampler.sample(node)))
        blocks = _stacked_sample_blocks(worklist, kernel, tree.points, norms, policy)
        for i, (node, candidates, rows) in enumerate(worklist):
            node_skel = skeletonize_node(
                tree,
                kernel,
                eff,
                sampler,
                node,
                candidates,
                norms,
                rows=rows,
                sample_block=blocks.get(i),
            )
            if node_skel is None:
                # alpha~ == l~ u r~: no compression; stop here and let the
                # frontier sit at the children (paper, "Level restriction").
                continue
            sset.skeletons[node.id] = node_skel
    return sset
