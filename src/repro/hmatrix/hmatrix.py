"""The hierarchical kernel matrix K~ (tree + skeletons + evaluation).

All vectors here live in *tree order* (the ball tree's permutation);
the :class:`~repro.core.solver.FastKernelSolver` facade translates to
and from user order.

Dense block payloads (leaf diagonal blocks and the skeleton-row blocks
of PRECOMPUTED summations) live in a shared
:class:`~repro.perf.BlockCache` under this matrix's namespace, so the
storage budget applies uniformly; the
lightweight :class:`~repro.kernels.summation.KernelSummation` wrappers
are memoized per node under the cache's striped locks, which lets the
task-parallel factorization executor fill different blocks
concurrently.
"""

from __future__ import annotations

import copy
import weakref

import numpy as np

from repro.config import SkeletonConfig, TreeConfig
from repro.kernels.base import Kernel
from repro.kernels.gsks import GSKSWorkspace
from repro.kernels.summation import KernelSummation, SummationMethod
from repro.perf.blockcache import BlockCache, BlockInfo, default_cache, next_namespace
from repro.perf.norms import NormTable
from repro.sampling.neighbors import NeighborTable
from repro.skeleton.skeletonize import SkeletonSet, skeletonize
from repro.tree.balltree import BallTree
from repro.tree.node import Node
from repro.util.flops import count_flops
from repro.util.validation import check_points, check_vector

__all__ = ["HMatrix", "build_hmatrix"]


class HMatrix:
    """ASKIT approximation ``K~`` of the kernel matrix over a ball tree.

    Parameters
    ----------
    tree:
        Built ball tree.
    kernel:
        Kernel function.
    skeletons:
        :class:`SkeletonSet` from :func:`repro.skeleton.skeletonize`.
    summation:
        Strategy for off-diagonal skeleton-row blocks during matvec
        ("precomputed" stores them, "fused"/"reevaluate" are
        matrix-free; paper section II-D).
    cache:
        :class:`~repro.perf.BlockCache` holding this matrix's dense
        blocks; defaults to the process-wide
        :func:`~repro.perf.default_cache`.
    """

    def __init__(
        self,
        tree: BallTree,
        kernel: Kernel,
        skeletons: SkeletonSet,
        *,
        summation: str | SummationMethod = SummationMethod.PRECOMPUTED,
        cache: BlockCache | None = None,
    ) -> None:
        self.tree = tree
        self.kernel = kernel
        self.skeletons = skeletons
        self.summation = SummationMethod(summation)
        self.frontier: list[Node] = skeletons.frontier()
        self._frontier_ids = {f.id for f in self.frontier}
        self._below: list[Node] = self._nodes_at_or_below_frontier()
        self._workspace = GSKSWorkspace()
        #: tree-wide squared norms, shared by every GSKS call site.
        self.norms = NormTable(tree.points, kernel)
        self._attach_cache(cache if cache is not None else default_cache())
        # memoized summation wrappers (dense payloads live in the cache;
        # fills are guarded per key by the cache's striped locks).
        self._sibling_blocks: dict[int, KernelSummation] = {}
        self._frontier_blocks: dict[int, KernelSummation] = {}
        self._own_blocks: dict[int, KernelSummation] = {}
        self._pair_blocks: dict[tuple, KernelSummation] = {}

    def _attach_cache(self, cache: BlockCache) -> None:
        self.cache = cache
        self._ns = next_namespace()
        # release this matrix's blocks when it is garbage collected (the
        # cache is process-wide and would otherwise pin them forever).
        self._finalizer = weakref.finalize(self, cache.drop_prefix, self._ns)

    # -- pickling: cache handles are process-local ------------------------
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("cache")
        state.pop("_ns")
        state.pop("_finalizer")
        # summation wrappers are lazy caches holding cache handles; the
        # receiver rebuilds them (kernel evaluation is deterministic, so
        # rebuilt blocks are bitwise identical).
        state["_sibling_blocks"] = {}
        state["_frontier_blocks"] = {}
        state["_own_blocks"] = {}
        state["_pair_blocks"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._attach_cache(default_cache())

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        n = self.tree.n_points
        return (n, n)

    @property
    def n_points(self) -> int:
        return self.tree.n_points

    def with_frontier(self, frontier: list[Node]) -> "HMatrix":
        """A shallow copy that factorizes at another antichain, ``frontier``.

        The level restriction of paper section II-C: any antichain of
        skeletonized nodes that partitions the points can bound the
        factorization, and the hybrid reduced solve finishes above it.
        Tree, skeletons, blocks and the cache are shared; only the
        factorization boundary moves.
        """
        moved = copy.copy(self)
        moved.frontier = list(frontier)
        moved._frontier_ids = {f.id for f in moved.frontier}
        moved._below = moved._nodes_at_or_below_frontier()
        return moved

    def _nodes_at_or_below_frontier(self) -> list[Node]:
        out: list[Node] = []
        stack = list(self.frontier)
        while stack:
            node = stack.pop()
            out.append(node)
            if not self.tree.is_leaf(node):
                left, right = self.tree.children(node)
                stack.extend((left, right))
        return out

    # -- cached blocks ---------------------------------------------------
    def leaf_block(self, leaf: Node) -> np.ndarray:
        """Exact dense diagonal block of a leaf."""
        key = (self._ns, "leaf", leaf.id)

        def build() -> np.ndarray:
            return self._build_leaf(leaf)

        info = BlockInfo(m=leaf.size, n=leaf.size)
        return self.cache.get_or_compute(key, build, info)

    def leaf_blocks_stacked(self, leaves: list[Node]) -> np.ndarray:
        """Dense diagonal blocks of same-sized leaves as one (g, m, m) stack.

        Cache misses are evaluated in a single stacked kernel call
        (bitwise identical to per-leaf evaluation) and admitted to the
        block cache under the same keys :meth:`leaf_block` uses, so the
        two entry points stay interchangeable.  The returned stack is
        freshly written (safe for the caller to modify in place).
        """
        from repro.perf import levelbatch

        m = leaves[0].size
        info = BlockInfo(m=m, n=m)
        keys = [(self._ns, "leaf", leaf.id) for leaf in leaves]
        need = [
            i for i, key in enumerate(keys) if not self.cache.contains(key)
        ]
        slices: dict[int, np.ndarray] = {}
        if need:
            pts = np.stack([self.tree.node_points(leaves[i]) for i in need])
            nrm = np.stack([self.norms.node(leaves[i]) for i in need])
            blocks = levelbatch.stacked_kernel_blocks(
                self.kernel, pts, pts, nrm, nrm
            )
            for pos, i in enumerate(need):
                slices[i] = blocks[pos].copy()

        out = np.empty((len(leaves), m, m))
        for i, key in enumerate(keys):
            pre = slices.get(i)
            if pre is not None:
                out[i] = self.cache.get_or_compute(key, lambda s=pre: s, info)
            else:
                out[i] = self.cache.get_or_compute(
                    key, lambda leaf=leaves[i]: self._build_leaf(leaf), info
                )
        return out

    def _build_leaf(self, leaf: Node) -> np.ndarray:
        pts = self.tree.node_points(leaf)
        nrm = self.norms.node(leaf)
        return self.kernel(pts, pts, norms_a=nrm, norms_b=nrm)

    def materialize_blocks(
        self, summs: list[KernelSummation]
    ) -> list[np.ndarray | None]:
        """Dense payloads for a same-shaped group of summation blocks.

        Batched-cache-fill version of ``KernelSummation._stored()``: one
        stacked kernel evaluation covers the group's cache misses; a
        ``None`` entry means the block stays matrix-free and the caller
        must use its ``matvec`` (exactly as a single product would).
        """
        from repro.perf import levelbatch

        return levelbatch.materialize_summations(summs)

    def _summation(
        self,
        store: dict,
        obj_key,
        rows: np.ndarray,
        node: Node | None,
        method: SummationMethod,
        cache_kind: str | None,
        *,
        norms_a: np.ndarray | None,
        norms_b: np.ndarray | None,
        XB: np.ndarray | None = None,
    ) -> KernelSummation:
        """Memoize one KernelSummation under a striped lock."""
        ks = store.get(obj_key)
        if ks is not None:
            return ks
        with self.cache.key_lock((self._ns, "obj", obj_key)):
            ks = store.get(obj_key)
            if ks is None:
                if XB is None:
                    XB = self.tree.node_points(node)
                cache_key = (
                    (self._ns, cache_kind, obj_key) if cache_kind else None
                )
                ks = KernelSummation(
                    self.kernel,
                    rows,
                    XB,
                    method,
                    workspace=self._workspace,
                    norms_a=norms_a,
                    norms_b=norms_b,
                    cache=self.cache if cache_key else None,
                    cache_key=cache_key,
                )
                store[obj_key] = ks
        return ks

    def sibling_block(self, child: Node) -> KernelSummation:
        """``K_{c~ sib(c)}`` — child-skeleton rows vs raw sibling points.

        ``child`` must be a child of a skeletonized (or frontier) node.
        """
        ks = self._sibling_blocks.get(child.id)
        if ks is not None:
            return ks
        sk = self.skeletons[child.id]
        sib = self.tree.node(child.sibling_id)
        return self._summation(
            self._sibling_blocks,
            child.id,
            self.tree.points[sk.skeleton],
            sib,
            self.summation,
            "sib",
            norms_a=self.norms.gather(sk.skeleton),
            norms_b=self.norms.node(sib),
        )

    def frontier_row_block(self, f: Node) -> KernelSummation:
        """``K_{f~ X}`` — frontier-skeleton rows against *all* points.

        Used by the coalesced above-frontier correction; the own-block
        part is subtracted by the caller.
        """
        ks = self._frontier_blocks.get(f.id)
        if ks is not None:
            return ks
        sk = self.skeletons[f.id]
        return self._summation(
            self._frontier_blocks,
            f.id,
            self.tree.points[sk.skeleton],
            None,
            self.summation,
            "frontier",
            norms_a=self.norms.gather(sk.skeleton),
            norms_b=self.norms.all(),
            XB=self.tree.points,
        )

    def own_block(self, f: Node) -> KernelSummation:
        """``K_{f~ f}`` — frontier-skeleton rows vs the node's own points
        (always matrix-free: used once per product as a correction)."""
        ks = self._own_blocks.get(f.id)
        if ks is not None:
            return ks
        sk = self.skeletons[f.id]
        return self._summation(
            self._own_blocks,
            f.id,
            self.tree.points[sk.skeleton],
            f,
            SummationMethod.FUSED,
            None,
            norms_a=self.norms.gather(sk.skeleton),
            norms_b=self.norms.node(f),
        )

    def pair_block(
        self,
        f: Node,
        g: Node,
        method: SummationMethod | str | None = None,
    ) -> KernelSummation:
        """``K_{f~ g}`` — skeleton rows of ``f`` against the raw points of
        ``g`` (the reduced frontier system's off-diagonal V blocks).
        For ``g == sib(f)`` prefer :meth:`sibling_block`, which this
        block would duplicate."""
        method = SummationMethod(method) if method is not None else self.summation
        obj_key = (f.id, g.id, method.value)
        ks = self._pair_blocks.get(obj_key)
        if ks is not None:
            return ks
        skf = self.skeletons[f.id]
        return self._summation(
            self._pair_blocks,
            obj_key,
            self.tree.points[skf.skeleton],
            g,
            method,
            "pair",
            norms_a=self.norms.gather(skf.skeleton),
            norms_b=self.norms.node(g),
        )

    # ------------------------------------------------------------------
    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Fast product ``K~ @ u`` in O(s N log N) (tree order).

        Accepts shape (N,) or (N, k).
        """
        u = check_vector(u, self.n_points)
        single = u.ndim == 1
        U = u[:, None] if single else u
        tree = self.tree
        sset = self.skeletons

        # skeleton-space accumulators z_alpha (s_alpha, k).
        z: dict[int, np.ndarray] = {}

        def zadd(node_id: int, contrib: np.ndarray) -> None:
            acc = z.get(node_id)
            if acc is None:
                z[node_id] = contrib.copy()
            else:
                acc += contrib

        # 1) exact leaf diagonal blocks.
        w = np.zeros_like(U)
        for leaf in tree.leaves():
            if not sset.is_skeletonized(leaf.id) and tree.depth > 0:
                continue  # unreachable by construction; defensive.
            block = self.leaf_block(leaf)
            w[leaf.lo : leaf.hi] = block @ U[leaf.lo : leaf.hi]
            count_flops(2 * block.size * U.shape[1], label="matvec_leaf")
        if tree.depth == 0:
            return w[:, 0] if single else w

        # 2) sibling interactions below (and at) the frontier.
        for node in self._below:
            if tree.is_leaf(node):
                continue
            left, right = tree.children(node)
            zadd(left.id, self.sibling_block(left).matvec(U[right.lo : right.hi]))
            zadd(right.id, self.sibling_block(right).matvec(U[left.lo : left.hi]))

        # 3) coalesced correction above the frontier:
        #    z_f += K_{f~ X} u - K_{f~ f} u_f.
        if len(self.frontier) > 1:
            for f in self.frontier:
                full = self.frontier_row_block(f).matvec(U)
                own = self.own_block(f).matvec(U[f.lo : f.hi])
                zadd(f.id, full - own)

        # 4) push skeleton-space contributions down through P^T.
        for node in self._topdown_below():
            acc = z.get(node.id)
            if acc is None:
                continue
            sk = sset[node.id]
            if tree.is_leaf(node):
                w[node.lo : node.hi] += sk.proj.T @ acc
                count_flops(2 * sk.proj.size * U.shape[1], label="matvec_down")
            else:
                left, right = tree.children(node)
                sl = sset[left.id].rank
                zadd(left.id, sk.proj[:, :sl].T @ acc)
                zadd(right.id, sk.proj[:, sl:].T @ acc)
                count_flops(2 * sk.proj.size * U.shape[1], label="matvec_down")
        return w[:, 0] if single else w

    def _topdown_below(self):
        """Nodes at/below the frontier, parents before children."""
        return sorted(self._below, key=lambda n: n.level)

    # ------------------------------------------------------------------
    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """Transpose product ``K~^T @ u`` in O(s N log N) (tree order).

        K~ is mildly nonsymmetric (target-side row compression), so the
        adjoint is a distinct operation: transposing
        ``K_lr ~= P_{l l~} K_{l~ r}`` gives *source-side* compression
        ``K~^T_{rl} = K_{r l~} P_{l~ l}`` — the classic treecode shape
        with an *upward* pass accumulating skeleton weights
        ``z_alpha = P_{alpha~ alpha} u_alpha`` (telescoped through the
        children) followed by skeleton-row transposed products.
        """
        u = check_vector(u, self.n_points)
        single = u.ndim == 1
        U = u[:, None] if single else u
        tree = self.tree
        sset = self.skeletons

        w = np.zeros_like(U)
        for leaf in tree.leaves():
            block = self.leaf_block(leaf)
            w[leaf.lo : leaf.hi] = block.T @ U[leaf.lo : leaf.hi]
            count_flops(2 * block.size * U.shape[1], label="rmatvec_leaf")
        if tree.depth == 0:
            return w[:, 0] if single else w

        # upward pass: skeleton weights z_alpha = P_{alpha~ alpha} u_alpha,
        # telescoped from the children (leaves first).
        z: dict[int, np.ndarray] = {}
        for node in sorted(self._below, key=lambda n: -n.level):
            sk = sset[node.id]
            if tree.is_leaf(node):
                z[node.id] = sk.proj @ U[node.lo : node.hi]
            else:
                left, right = tree.children(node)
                z[node.id] = sk.proj @ np.concatenate(
                    [z[left.id], z[right.id]], axis=0
                )
            count_flops(2 * sk.proj.size * U.shape[1], label="rmatvec_up")

        # sibling interactions, transposed: w_r += K_{l~ r}^T z_l.
        for node in self._below:
            if tree.is_leaf(node):
                continue
            left, right = tree.children(node)
            w[right.lo : right.hi] += self.sibling_block(left).rmatvec(z[left.id])
            w[left.lo : left.hi] += self.sibling_block(right).rmatvec(z[right.id])

        # above the frontier: w += sum_f K_{f~ X}^T z_f minus own blocks.
        if len(self.frontier) > 1:
            for f in self.frontier:
                zf = z[f.id]
                w += self.frontier_row_block(f).rmatvec(zf)
                w[f.lo : f.hi] -= self.own_block(f).rmatvec(zf)
        return w[:, 0] if single else w

    def as_linear_operator(self, lam: float = 0.0):
        """``lambda I + K~`` as a :class:`scipy.sparse.linalg.LinearOperator`.

        Exposes ``matvec`` and ``rmatvec``, so the hierarchical matrix
        plugs directly into SciPy's iterative solvers and eigensolvers
        (``gmres``, ``lsqr``, ``eigs``, ...).
        """
        from scipy.sparse.linalg import LinearOperator

        n = self.n_points
        return LinearOperator(
            (n, n),
            matvec=lambda v: self.matvec(v) + lam * np.asarray(v, dtype=np.float64),
            rmatvec=lambda v: self.rmatvec(v) + lam * np.asarray(v, dtype=np.float64),
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize K~ (tree order) for validation.  O(N^2) memory."""
        from repro.hmatrix.dense import assemble_dense

        return assemble_dense(self)

    def regularized_matvec(self, lam: float, u: np.ndarray) -> np.ndarray:
        """``(lambda I + K~) u`` — the operator the solvers invert."""
        return self.matvec(u) + lam * np.asarray(u, dtype=np.float64)

    def storage_words(self) -> int:
        """Persistent float64 words held for this matrix (memory study):
        cached dense blocks under its namespace, the norm table, and the
        skeleton projection factors."""
        total = self.cache.words_of_prefix(self._ns)
        total += self.norms.storage_words()
        for sk in self.skeletons.skeletons.values():
            total += sk.proj.size
        return total

    def cache_stats(self):
        """Counter snapshot of the underlying block cache (process-wide)."""
        return self.cache.stats()


def build_hmatrix(
    X: np.ndarray,
    kernel: Kernel,
    *,
    tree_config: TreeConfig | None = None,
    skeleton_config: SkeletonConfig | None = None,
    neighbors: NeighborTable | None = None,
    summation: str | SummationMethod = SummationMethod.PRECOMPUTED,
    cache: BlockCache | None = None,
    deadline=None,
    coarsen=None,
) -> HMatrix:
    """Convenience constructor: tree + skeletonization + HMatrix.

    ``deadline``/``coarsen`` (see :mod:`repro.resilience`) bound the
    work: with a coarsen policy, deadline pressure coarsens ``tau``
    mid-skeletonization instead of raising.
    """
    from repro.obs import span

    X = check_points(X)
    with span("tree", counters=True, attrs={"n": X.shape[0], "d": X.shape[1]}):
        tree = BallTree(X, tree_config)
    with span("skeletonize", counters=True, fallback=True,
              attrs={"depth": tree.depth}):
        sset = skeletonize(
            tree,
            kernel,
            skeleton_config,
            neighbors=neighbors,
            deadline=deadline,
            coarsen=coarsen,
        )
    return HMatrix(tree, kernel, sset, summation=summation, cache=cache)
