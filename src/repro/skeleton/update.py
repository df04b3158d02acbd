"""Local skeleton repair for incremental updates (docs/UPDATES.md).

Two repair modes, both reusing as much of the existing
:class:`~repro.skeleton.skeletonize.SkeletonSet` as is still valid:

* :func:`update_skeletons` — after a point insertion/deletion
  (:mod:`repro.tree.update`), *clean* nodes (no touched leaf in their
  subtree) keep their projections verbatim and only have their index
  arrays re-mapped through the position map; *dirty* nodes — the
  touched leaves and their root paths, since an internal node's
  candidates are its children's skeletons — are re-skeletonized
  bottom-up with fresh row samples.  This is the locality argument of
  Ryan–Damle (arXiv:2001.11619) applied to the ASKIT construction.

* :func:`refresh_projections` — for a kernel-parameter sweep
  (e.g. Gaussian bandwidth) on *unchanged* geometry: the skeleton
  *structure* (which points are skeletons, which columns are
  candidates) is frozen and only the projection matrices are refit
  against the new kernel by least squares on the same per-node row
  sample.  This skips the tree build and the pivoted-QR column
  selection — the cheap GP model-selection path.  It does not skip the
  neighbor search: re-drawing the row sample runs
  :func:`~repro.skeleton.skeletonize.prepare_sampling`, which rebuilds
  the approximate kNN table over every point.

Both modes re-draw their row samples that way, so an insertion that
re-skeletonizes a few nodes still pays a kNN search over all points.
"""

from __future__ import annotations

import numpy as np

from repro.config import SkeletonConfig
from repro.kernels.base import Kernel
from repro.skeleton.skeletonize import (
    NodeSkeleton,
    SkeletonSet,
    prepare_sampling,
    skeletonize_node,
)
from repro.tree.balltree import BallTree

__all__ = ["update_skeletons", "refresh_projections", "dirty_node_ids"]


def dirty_node_ids(dirty_leaves: list[int]) -> set[int]:
    """The dirty leaves plus every ancestor up to the root.

    A changed leaf invalidates its own skeleton and — because internal
    candidates are the concatenation of children's skeletons — every
    skeleton on its root path.
    """
    dirty: set[int] = set()
    for lid in dirty_leaves:
        nid = int(lid)
        while nid >= 1 and nid not in dirty:
            dirty.add(nid)
            nid //= 2
    return dirty


def update_skeletons(
    old: SkeletonSet,
    tree: BallTree,
    kernel: Kernel,
    config: SkeletonConfig,
    pos_map: np.ndarray,
    dirty: set[int],
) -> SkeletonSet:
    """Skeletons for the updated ``tree``, recomputing only ``dirty`` nodes.

    Clean nodes' skeleton/candidate index arrays are re-mapped through
    ``pos_map`` (their projections are untouched — the underlying
    points did not move, only their tree positions shifted).  Dirty
    nodes are re-skeletonized bottom-up; the adaptive stopping rule
    applies as in a fresh build, so the frontier may deepen where an
    update degraded compressibility — the factorization's hybrid
    fallback handles that exactly as it does at build time.
    """
    sset = SkeletonSet(
        tree=tree,
        config=config,
        effective_level=old.effective_level,
        degradation_events=list(old.degradation_events),
    )
    for nid, sk in old.skeletons.items():
        if nid in dirty:
            continue
        sset.skeletons[nid] = NodeSkeleton(
            node_id=nid,
            skeleton=pos_map[sk.skeleton],
            candidates=pos_map[sk.candidates],
            proj=sk.proj,
            achieved_tol=sk.achieved_tol,
        )
    if tree.depth == 0:
        return sset

    sampler, _ = prepare_sampling(tree, config)
    norms = kernel.prepare_norms(tree.points)
    level_stop = max(old.effective_level, 1)
    for level in range(tree.depth, level_stop - 1, -1):
        for node in tree.level_nodes(level):
            if node.id not in dirty:
                continue
            sset.skeletons.pop(node.id, None)
            if tree.is_leaf(node):
                candidates = np.arange(node.lo, node.hi, dtype=np.intp)
            else:
                left, right = tree.children(node)
                if not (
                    sset.is_skeletonized(left.id)
                    and sset.is_skeletonized(right.id)
                ):
                    continue  # adaptive stop propagated upward
                candidates = np.concatenate(
                    [sset[left.id].skeleton, sset[right.id].skeleton]
                )
            node_skel = skeletonize_node(
                tree, kernel, config, sampler, node, candidates, norms
            )
            if node_skel is None:
                continue
            sset.skeletons[node.id] = node_skel
    return sset


def refresh_projections(
    old: SkeletonSet,
    tree: BallTree,
    kernel: Kernel,
    config: SkeletonConfig,
) -> SkeletonSet:
    """Refit every projection against a new kernel, structure frozen.

    For each skeletonized node with sample rows ``S'`` (re-drawn
    deterministically, neighbor table included — geometry is unchanged,
    so the draw matches the original build), candidates ``C`` and
    skeleton ``S ⊂ C``, solves

        ``min_P || K_new(S', S) P - K_new(S', C) ||_F``

    so the telescoping identity ``K_{S' C} ≈ K_{S' S} P`` the
    factorization relies on holds under the new kernel.  The achieved
    tolerance is re-estimated from the least-squares residual.
    """
    sset = SkeletonSet(
        tree=tree,
        config=config,
        effective_level=old.effective_level,
        degradation_events=list(old.degradation_events),
    )
    sampler, _ = prepare_sampling(tree, config)
    norms = kernel.prepare_norms(tree.points)
    X = tree.points
    for nid, sk in old.skeletons.items():
        node = tree.node(nid)
        rows = sampler.sample(node)
        cand = sk.candidates
        if len(rows) == 0:
            sset.skeletons[nid] = NodeSkeleton(
                node_id=nid,
                skeleton=sk.skeleton,
                candidates=cand,
                proj=sk.proj,
                achieved_tol=sk.achieved_tol,
            )
            continue
        G = kernel(
            X[rows], X[cand], norms_a=norms[rows], norms_b=norms[cand]
        )
        # local columns of the frozen skeleton inside the candidate list
        # (candidate positions are unique: a leaf's own points, or the
        # disjoint union of two children's skeletons).
        lookup = {int(c): i for i, c in enumerate(cand)}
        local = np.asarray([lookup[int(s)] for s in sk.skeleton], dtype=np.intp)
        Gs = G[:, local]
        proj, *_ = np.linalg.lstsq(Gs, G, rcond=None)
        denom = float(np.linalg.norm(G))
        resid = float(np.linalg.norm(G - Gs @ proj))
        sset.skeletons[nid] = NodeSkeleton(
            node_id=nid,
            skeleton=sk.skeleton,
            candidates=cand,
            proj=proj,
            achieved_tol=resid / denom if denom > 0 else 0.0,
        )
    return sset
