"""Level-synchronous shape-batched numerics.

The factorization, skeletonization, and frontier-assembly loops visit
thousands of small same-shaped nodes; below the leaf-size crossover the
cost is Python/LAPACK *dispatch*, not flops.  INV-ASKIT gets its
single-node throughput by stacking a whole tree level's same-shaped
per-node updates into one level-wide BLAS call — this module is that
idea for the numpy reproduction:

* :func:`group_by_key` — bucket a level's nodes by operand shape,
  preserving node order inside each bucket; :func:`split_groups` turns
  the buckets into the groups the numerics run, splitting a bucket the
  policy declines into groups of one;
* :func:`stacked_kernel_blocks` — one batched kernel evaluation for a
  ``(b, m, d) x (b, n, d)`` stack of point blocks, replicating the
  per-node evaluation's exact op sequence (bitwise-identical slices);
* :func:`materialize_summations` — dense payloads for a same-shaped
  group of PRECOMPUTED :class:`~repro.kernels.summation.KernelSummation`
  blocks, batch-evaluating the cache misses while honoring the cache's
  admission policy (a declined block returns ``None`` and the caller
  takes that block's matrix-free path);
* :class:`BatchPolicy` — the roofline-derived "is this group worth
  stacking" threshold, fed by the probed
  :class:`~repro.perfmodel.MachineSpec` instead of fixed constants.

Batched LU/solve goes through
:func:`repro.util.lapack.lu_factor_batched` /
:func:`~repro.util.lapack.lu_solve_batched`, one ``dgetrf``/``dgetrs``
per slice.  The factorization has one set of numerics: a group the
policy declines runs as groups of one through the same stacked code,
so a node's factors never depend on how its level was grouped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

import numpy as np

from repro.util.flops import count_flops, count_kernel_evals

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernels.base import Kernel
    from repro.kernels.summation import KernelSummation

__all__ = [
    "BatchPolicy",
    "group_by_key",
    "split_groups",
    "partition_resume",
    "stacked_kernel_blocks",
    "one_norms_stacked",
    "materialize_summations",
]


@dataclass(frozen=True)
class BatchPolicy:
    """When is stacking a shape group worth it on this machine?

    Batching a group of ``count`` same-shaped blocks saves
    ``(count - 1) * calls_saved`` per-call dispatch overheads but pays
    roughly one extra gather + scatter stream of the stacked operands.
    The break-even point therefore depends on the measured dispatch
    overhead and stream bandwidth — :meth:`current` reads both from the
    probed :class:`~repro.perfmodel.MachineSpec`.  The verdict picks only
    how a level is grouped, never what a node computes.
    """

    dispatch_us: float
    stream_bw_gbs: float

    @classmethod
    def current(cls) -> "BatchPolicy":
        from repro.perfmodel.machine import probed_machine

        spec = probed_machine()
        return cls(dispatch_us=spec.dispatch_us, stream_bw_gbs=spec.stream_bw_gbs)

    def worth(self, count: int, item_words: int, calls_saved: int = 6) -> bool:
        """True when stacking ``count`` items of ``item_words`` f64 words
        each (with ``calls_saved`` dispatches amortized per item) wins."""
        if count < 2:
            return False
        saved = (count - 1) * calls_saved * self.dispatch_us * 1e-6
        extra = 2.0 * count * item_words * 8.0 / (self.stream_bw_gbs * 1e9)
        return saved > extra


def group_by_key(
    items: Sequence, key: Callable[[object], Hashable]
) -> dict[Hashable, list[int]]:
    """Bucket indices of ``items`` by ``key(item)``, preserving order."""
    groups: dict[Hashable, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    return groups


def split_groups(
    items: Sequence,
    key: Callable[[object], Hashable],
    worth: Callable[[Hashable, int], bool],
) -> list[tuple[Hashable, list]]:
    """``(key, members)`` groups to run for ``items``, in bucket order.

    A :func:`group_by_key` bucket stays whole when ``worth(key, count)``
    accepts it and is split into groups of one otherwise.
    """
    out: list[tuple[Hashable, list]] = []
    for k, idxs in group_by_key(items, key).items():
        members = [items[i] for i in idxs]
        if len(members) > 1 and worth(k, len(members)):
            out.append((k, members))
        else:
            out.extend((k, [member]) for member in members)
    return out


def partition_resume(nodes: Sequence, resume: dict) -> tuple[list, list]:
    """Split a level's nodes into ``(compute, restore)`` lists.

    Dirty-level restacking for incremental updates: nodes present in
    the ``resume`` payload map re-enter the factorization as standalone
    transplanted arrays, so they are excluded from the level's
    shape-group stacking — only the recomputed remainder is batched —
    and the parent level's P^ gather falls back to its
    layout-preserving copy path for them automatically (they hold no
    stack slot).  Node order is preserved inside both lists.
    """
    compute = [n for n in nodes if n.id not in resume]
    restore = [n for n in nodes if n.id in resume]
    return compute, restore


def stacked_kernel_blocks(
    kernel: "Kernel",
    XA: np.ndarray,
    XB: np.ndarray,
    norms_a: np.ndarray | None = None,
    norms_b: np.ndarray | None = None,
) -> np.ndarray:
    """Batched dense kernel blocks ``K(XA[i], XB[i])`` for a shape group.

    ``XA``/``XB`` are ``(b, m, d)`` / ``(b, n, d)`` stacks and
    ``norms_a``/``norms_b`` the matching ``(b, m)`` / ``(b, n)`` squared
    norms (required for distance kernels — callers always have a
    :class:`~repro.perf.NormTable`).  Replicates the exact op sequence
    of :meth:`Kernel.__call__` per slice, so every slice is bitwise
    identical to the per-node evaluation; flops and kernel-evaluation
    counters are charged with the per-node labels and totals.
    """
    b, m, d = XA.shape
    n = XB.shape[1]
    if kernel.uses_distances:
        if norms_a is None or norms_b is None:
            raise ValueError("stacked distance kernels need precomputed norms")
        block = np.matmul(XA, XB.transpose(0, 2, 1))
        block *= -2.0
        count_flops(b * (2 * m * n * d + 3 * m * n), label="pairwise_sq_dists")
        block += norms_a[:, :, None]
        block += norms_b[:, None, :]
        np.maximum(block, 0.0, out=block)
    else:
        block = np.matmul(XA, XB.transpose(0, 2, 1))
        count_flops(b * 2 * m * n * d, label="kernel_gemm")
    block = kernel._apply(block)
    count_flops(kernel.flops_per_entry * b * m * n, label="kernel_elementwise")
    count_kernel_evals(b * m * n)
    return block


def one_norms_stacked(A: np.ndarray) -> np.ndarray:
    """1-norms of a ``(b, n, n)`` stack, bitwise equal to per-slice
    ``np.linalg.norm(A[i], 1)`` (same pairwise-summation order)."""
    if A.shape[0] == 0 or A.shape[1] == 0:
        return np.zeros(A.shape[0])
    return np.abs(A).sum(axis=1).max(axis=1)


def materialize_summations(
    summs: Sequence["KernelSummation"],
) -> list[np.ndarray | None]:
    """Dense blocks for a *same-shaped* group of summations, or ``None``
    where ``matvec`` would go matrix-free.

    Mirrors ``KernelSummation._stored()`` exactly — eager blocks are
    returned as-is, cache-backed blocks go through the cache's
    ``offer`` (same hit/miss/rejection accounting as one ``matvec``)
    — except that all cache *misses* in the group are evaluated in one
    stacked kernel call instead of one call each.  Entries whose method
    is not PRECOMPUTED, or whose block the cache declines, come back
    ``None``: the caller must use their ``matvec`` (its GSKS path is
    tiled and not bitwise-comparable to a dense product, so the choice
    must match what ``matvec`` would do).
    """
    from repro.kernels.summation import SummationMethod

    out: list[np.ndarray | None] = [None] * len(summs)
    pending: list[int] = []
    for i, summ in enumerate(summs):
        if summ.method is not SummationMethod.PRECOMPUTED:
            continue
        if summ._matrix is not None:
            out[i] = summ._matrix
        elif summ._cache is not None:
            pending.append(i)

    if not pending:
        return out

    # the store-vs-recompute policy depends only on the block dimensions
    # and the machine model, and every summation in the group has the
    # same shape — evaluate it once per (cache, shape), not per block.
    infos = {i: summs[i]._block_info() for i in pending}
    verdicts: dict[int, bool] = {}
    for i in pending:
        ck = id(summs[i]._cache)
        if ck not in verdicts:
            verdicts[ck] = summs[i]._cache.should_store(infos[i])

    # one stacked evaluation for the group's actual cache misses (blocks
    # the policy would store); already-cached and policy-declined blocks
    # are excluded so flop charges match per-block evaluation exactly.
    need = [
        i
        for i in pending
        if verdicts[id(summs[i]._cache)]
        and not summs[i]._cache.contains(summs[i]._cache_key)
    ]
    slices: dict[int, np.ndarray] = {}
    if need:
        kernel = summs[need[0]].kernel
        XA = np.stack([summs[i].XA for i in need])
        XB = np.stack([summs[i].XB for i in need])
        if kernel.uses_distances:
            na = np.stack([summs[i]._norms_a for i in need])
            nb = np.stack([summs[i]._norms_b for i in need])
        else:
            na = nb = None
        blocks = stacked_kernel_blocks(kernel, XA, XB, na, nb)
        for pos, i in enumerate(need):
            # copy: a slice view would pin the whole stack in the cache.
            slices[i] = blocks[pos].copy()

    for i in pending:
        summ = summs[i]
        pre = slices.get(i)
        factory = (lambda s=pre: s) if pre is not None else summ._evaluate
        out[i] = summ._cache.offer(
            summ._cache_key,
            factory,
            infos[i],
            decided=verdicts[id(summ._cache)],
        )
    return out
