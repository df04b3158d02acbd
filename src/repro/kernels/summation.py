"""Kernel-summation strategies (paper Table IV, section II-D).

The solve phase repeatedly multiplies stored-or-implicit kernel blocks
``K(XA, XB)`` with vectors.  The paper studies three realizations with
different storage/time trade-offs; :class:`KernelSummation` implements
all three behind one interface so the solver can switch by configuration:

* ``PRECOMPUTED`` — store the dense block, multiply with GEMV.
  O(m n) storage, fastest per solve.
* ``REEVALUATE`` — store nothing; on every product, materialize the full
  block with a GEMM-based evaluation and then multiply.  O(m n) transient
  workspace, O(1) persistent storage, slowest (Table IV "GEMM" rows).
* ``FUSED`` — GSKS tiles: O(tile) workspace, O(1) persistent storage,
  within 1.2–1.6x of PRECOMPUTED per the paper.

When a :class:`~repro.perf.BlockCache` is attached, PRECOMPUTED blocks
live in the cache rather than on the summation object: the dense block
is materialized lazily on first product, subject to the cache's word
budget, and a product whose block the cache declines (or has evicted)
falls back to the FUSED path.  That is
the paper's Table IV trade-off made per block at runtime.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.kernels.base import Kernel
from repro.kernels.gsks import GSKSWorkspace, gsks_matvec
from repro.util.flops import count_flops, count_mops

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.perf.blockcache import BlockCache

__all__ = ["SummationMethod", "KernelSummation"]


class SummationMethod(str, enum.Enum):
    """How ``K(XA, XB) @ u`` products are realized."""

    PRECOMPUTED = "precomputed"
    REEVALUATE = "reevaluate"
    FUSED = "fused"


class KernelSummation:
    """A (possibly implicit) kernel block ``K(XA, XB)`` with matvec.

    Parameters
    ----------
    kernel:
        The kernel function.
    XA, XB:
        Row/column point blocks.
    method:
        One of :class:`SummationMethod`.
    workspace:
        Shared :class:`GSKSWorkspace` for the FUSED method.
    norms_a, norms_b:
        Optional precomputed squared norms of the XA / XB rows (views
        into a tree-wide :class:`~repro.perf.NormTable`); computed here
        only when needed and not supplied.
    cache, cache_key:
        Optional :class:`~repro.perf.BlockCache` and key under which a
        PRECOMPUTED dense block is stored; both must be supplied
        together (a half-specified pair raises
        :class:`~repro.exceptions.ConfigurationError`).  Without a
        cache the block is computed eagerly and held on the object
        (seed behavior).
    """

    def __init__(
        self,
        kernel: Kernel,
        XA: np.ndarray,
        XB: np.ndarray,
        method: SummationMethod | str = SummationMethod.PRECOMPUTED,
        *,
        workspace: GSKSWorkspace | None = None,
        norms_a: np.ndarray | None = None,
        norms_b: np.ndarray | None = None,
        cache: "BlockCache | None" = None,
        cache_key: Hashable | None = None,
    ) -> None:
        self.kernel = kernel
        self.XA = np.atleast_2d(np.asarray(XA, dtype=np.float64))
        self.XB = np.atleast_2d(np.asarray(XB, dtype=np.float64))
        self.method = SummationMethod(method)
        self.shape = (self.XA.shape[0], self.XB.shape[0])
        self._workspace = workspace
        self._matrix: np.ndarray | None = None
        if (cache is None) != (cache_key is None):
            # a half-specified pair used to silently disable caching —
            # the caller asked for caching and got the eager/matrix-free
            # path instead, with no signal anything was wrong.
            raise ConfigurationError(
                "cache and cache_key must be supplied together; got "
                f"cache={'set' if cache is not None else None}, "
                f"cache_key={cache_key!r}"
            )
        self._cache = cache
        self._cache_key = cache_key
        self._norms_a = norms_a if kernel.uses_distances else None
        self._norms_b = norms_b if kernel.uses_distances else None
        needs_norms = kernel.uses_distances and (
            self.method is not SummationMethod.REEVALUATE
        )
        if needs_norms:
            if self._norms_a is None:
                self._norms_a = np.einsum("ij,ij->i", self.XA, self.XA)
            if self._norms_b is None:
                self._norms_b = np.einsum("ij,ij->i", self.XB, self.XB)
        if self.method is SummationMethod.PRECOMPUTED and self._cache is None:
            self._matrix = self._evaluate()

    # ------------------------------------------------------------------
    def _evaluate(self) -> np.ndarray:
        """Materialize the dense block."""
        return self.kernel(
            self.XA, self.XB, norms_a=self._norms_a, norms_b=self._norms_b
        )

    def _block_info(self):
        from repro.perf.blockcache import BlockInfo

        m, n = self.shape
        return BlockInfo(m=m, n=n)

    def _stored(self) -> np.ndarray | None:
        """The dense block if stored (object or cache), else None.

        With a cache this asks the budget/policy on each product, so a
        block the cache declines today may be admitted tomorrow after
        evictions free room — and vice versa.
        """
        if self._matrix is not None:
            return self._matrix
        if self._cache is not None:
            return self._cache.offer(
                self._cache_key, self._evaluate, self._block_info()
            )
        return None

    @property
    def storage_words(self) -> int:
        """Persistent float64 words held by this block (paper's memory study).

        Norm vectors are shared views of the tree-wide table when one is
        attached; they are only counted here when this object owns them
        (no cache/table involved, FUSED method) to match the seed
        accounting.
        """
        if self._matrix is not None:
            return self._matrix.size
        if self._cache is not None:
            if self._cache.contains(self._cache_key):
                m, n = self.shape
                return m * n
            return 0
        extra = 0
        if self.method is SummationMethod.FUSED and self._norms_a is not None:
            extra = self._norms_a.size + self._norms_b.size
        return extra

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Compute ``K(XA, XB) @ u`` with the configured strategy."""
        m, n = self.shape
        u = np.asarray(u, dtype=np.float64)
        k = 1 if u.ndim == 1 else u.shape[1]
        if self.method is SummationMethod.PRECOMPUTED:
            K = self._stored()
            if K is not None:
                count_flops(2 * m * n * k, label="summation_gemv")
                # streams the stored matrix plus vectors.
                count_mops(m * n + n * k + m * k)
                return K @ u
            # cache declined the block: recompute matrix-free.
        elif self.method is SummationMethod.REEVALUATE:
            K = self.kernel(self.XA, self.XB)
            count_flops(2 * m * n * k, label="summation_gemv")
            # the materialized block is written out and read back.
            count_mops(2 * m * n + m * self.XA.shape[1] + n * self.XB.shape[1] + n * k + m * k)
            return K @ u
        return gsks_matvec(
            self.kernel,
            self.XA,
            self.XB,
            u,
            workspace=self._workspace,
            norms_a=self._norms_a,
            norms_b=self._norms_b,
        )

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """Compute ``K(XA, XB).T @ u == K(XB, XA) @ u`` (symmetric kernels)."""
        m, n = self.shape
        u = np.asarray(u, dtype=np.float64)
        k = 1 if u.ndim == 1 else u.shape[1]
        if self.method is SummationMethod.PRECOMPUTED:
            K = self._stored()
            if K is not None:
                count_flops(2 * m * n * k, label="summation_gemv")
                count_mops(m * n + n * k + m * k)
                return K.T @ u
        elif self.method is SummationMethod.REEVALUATE:
            K = self.kernel(self.XB, self.XA)
            count_flops(2 * m * n * k, label="summation_gemv")
            count_mops(2 * m * n + m * self.XA.shape[1] + n * self.XB.shape[1] + n * k + m * k)
            return K @ u
        return gsks_matvec(
            self.kernel,
            self.XB,
            self.XA,
            u,
            workspace=self._workspace,
            norms_a=self._norms_b,
            norms_b=self._norms_a,
        )

    def to_dense(self) -> np.ndarray:
        """Materialize the block (for testing / dense assembly)."""
        if self._matrix is not None:
            return self._matrix
        if self._cache is not None:
            block = self._cache.fetch(self._cache_key)
            if block is not None:
                return block
        return self._evaluate()

    # -- pickling: the cache handle is process-local ---------------------
    def __getstate__(self):
        state = dict(self.__dict__)
        state["_cache"] = None
        state["_cache_key"] = None
        if state["_matrix"] is None and self.method is SummationMethod.PRECOMPUTED:
            # ship nothing dense; the receiver re-evaluates lazily
            # against its own default cache (deterministic, so products
            # are bitwise identical).
            pass
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if (
            self.method is SummationMethod.PRECOMPUTED
            and self._matrix is None
            and self._cache is None
        ):
            from repro.perf.blockcache import default_cache, next_namespace

            self._cache = default_cache()
            self._cache_key = (next_namespace(), "summation")
