"""GSKS-style fused, matrix-free kernel summation (paper section II-D).

Computes ``w = K(XA, XB) @ u`` without ever materializing the full
``m x n`` kernel block.  The BLIS-style decomposition of the paper's
AVX2/AVX512 implementation is reproduced as a tile loop: for each
``(tile_m, tile_n)`` subproblem, perform the rank-d update (semi-ring
GEMM), apply the kernel function while the tile is "in registers"
(here: in a reused cache-sized workspace), reduce against ``u``, and
accumulate into ``w``.  Only the tile is ever stored, so the extra
memory traffic is ``O(m d + n d)`` words instead of the
``O(m d + n d + m n)`` of the evaluate-then-GEMV reference — exactly
the trade the paper measures in Table I.

FLOPs (``2 m n d`` for the update plus the elementwise kernel cost)
and MOPs are charged to the active :class:`~repro.util.flops.FlopCounter`
so the performance model can convert them into modeled node times.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.kernels.base import Kernel
from repro.obs import registry, tracer
from repro.util.flops import count_flops, count_mops

__all__ = ["GSKSWorkspace", "autotuned_tiles", "gsks_matvec"]

#: default tile sizes — sized so a float64 tile stays ~2 MiB (L2-ish),
#: mirroring the macro-kernel blocking of the BLIS framework.
DEFAULT_TILE_M = 256
DEFAULT_TILE_N = 1024

_TUNED: tuple[int, int] | None = None


def autotuned_tiles() -> tuple[int, int]:
    """Machine-tuned ``(tile_m, tile_n)`` for :class:`GSKSWorkspace`.

    ``tile_n`` is widened until one tile's elementwise pass costs well
    over the measured per-call dispatch overhead (~2 %), so small-tile
    loops are dominated by math, not Python — the probed
    :class:`~repro.perfmodel.MachineSpec` supplies both rates.  Clamped
    to ``[DEFAULT_TILE_N, 4096]`` columns and rounded to a power of two.
    Cached per process (the probe itself is also cached).
    """
    global _TUNED
    if _TUNED is not None:
        return _TUNED
    from repro.perfmodel.machine import probed_machine

    spec = probed_machine()
    # columns needed so DEFAULT_TILE_M rows of exp() take >= 50x the
    # per-call dispatch time (2% overhead ceiling).
    target = 50.0 * spec.dispatch_us * 1e-6 * spec.exp_gelems * 1e9
    tn = DEFAULT_TILE_N
    while tn < 4096 and DEFAULT_TILE_M * tn < target:
        tn *= 2
    _TUNED = (DEFAULT_TILE_M, tn)
    return _TUNED


class GSKSWorkspace:
    """Reusable tile buffer for :func:`gsks_matvec`.

    Allocating the tile once per traversal (rather than per call)
    matters when the solver performs thousands of small summations.
    The buffer is *thread-local*: one workspace object may be shared by
    the virtual-MPI rank threads and concurrent solves without tile
    races (each thread lazily gets its own tile).

    Tile sizes default to :func:`autotuned_tiles`; they are fixed at
    construction and travel with the pickled workspace, so every worker
    process of a distributed run tiles identically no matter what its
    own probe would say.
    """

    def __init__(self, tile_m: int | None = None, tile_n: int | None = None):
        auto_m, auto_n = autotuned_tiles()
        tile_m = auto_m if tile_m is None else tile_m
        tile_n = auto_n if tile_n is None else tile_n
        if tile_m <= 0 or tile_n <= 0:
            raise ValueError("tile sizes must be positive")
        self.tile_m = int(tile_m)
        self.tile_n = int(tile_n)
        self._local = threading.local()

    def tile_view(self, m: int, n: int) -> np.ndarray:
        """An (m, n) view into this thread's tile (m/n within bounds)."""
        tile = getattr(self._local, "tile", None)
        if tile is None:
            tile = np.empty((self.tile_m, self.tile_n), dtype=np.float64)
            self._local.tile = tile
        return tile[:m, :n]

    def scratch_view(self, m: int, n: int) -> np.ndarray:
        """Second (m, n) buffer for kernels whose ``_apply`` needs one
        (Matern nu >= 3/2 holds the prefactor and the exponential at
        once).  Same thread-local lifetime as :meth:`tile_view`."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = np.empty((self.tile_m, self.tile_n), dtype=np.float64)
            self._local.scratch = scratch
        return scratch[:m, :n]

    # -- pickling: drop the per-thread buffers ---------------------------
    def __getstate__(self):
        return {"tile_m": self.tile_m, "tile_n": self.tile_n}

    def __setstate__(self, state):
        self.tile_m = state["tile_m"]
        self.tile_n = state["tile_n"]
        self._local = threading.local()


def gsks_matvec(
    kernel: Kernel,
    XA: np.ndarray,
    XB: np.ndarray,
    u: np.ndarray,
    *,
    workspace: GSKSWorkspace | None = None,
    norms_a: np.ndarray | None = None,
    norms_b: np.ndarray | None = None,
) -> np.ndarray:
    """Fused kernel summation ``w = K(XA, XB) @ u``.

    Parameters
    ----------
    kernel:
        Kernel function to evaluate entrywise.
    XA, XB:
        Target (m, d) and source (n, d) point blocks.
    u:
        Source weights, shape (n,) or (n, k).
    workspace:
        Optional preallocated :class:`GSKSWorkspace`.
    norms_a, norms_b:
        Optional precomputed squared norms of XA / XB rows (only used by
        distance-based kernels).

    Returns
    -------
    w : ndarray of shape (m,) or (m, k)
    """
    XA = np.atleast_2d(np.asarray(XA, dtype=np.float64))
    XB = np.atleast_2d(np.asarray(XB, dtype=np.float64))
    u = np.asarray(u, dtype=np.float64)
    m, d = XA.shape
    n = XB.shape[0]
    if XB.shape[1] != d:
        raise ValueError(f"dimension mismatch: XA is {XA.shape}, XB is {XB.shape}")
    single = u.ndim == 1
    U = u[:, None] if single else u
    if U.shape[0] != n:
        raise ValueError(f"u has leading dimension {U.shape[0]}, expected {n}")
    k = U.shape[1]

    if workspace is None:
        workspace = GSKSWorkspace()
    tm, tn = workspace.tile_m, workspace.tile_n

    use_dist = kernel.uses_distances
    if use_dist:
        if norms_a is None:
            norms_a = np.einsum("ij,ij->i", XA, XA)
        if norms_b is None:
            norms_b = np.einsum("ij,ij->i", XB, XB)

    # per-tile spans are behind the sampling knob (REPRO_TRACE_TILES):
    # with sampling off (the default) the tracer is never consulted in
    # the inner loop — only the tile counter is bumped, once per call.
    tr = tracer()
    trace_tiles = tr.sample_every > 0
    n_tiles = 0

    w = np.zeros((m, k), dtype=np.float64)
    for i0 in range(0, m, tm):
        i1 = min(i0 + tm, m)
        Ai = XA[i0:i1]
        na = norms_a[i0:i1] if use_dist else None
        for j0 in range(0, n, tn):
            j1 = min(j0 + tn, n)
            n_tiles += 1
            handle = (
                tr.span(
                    "gsks.tile",
                    attrs={"m": i1 - i0, "n": j1 - j0},
                    sampled=True,
                )
                if trace_tiles
                else None
            )
            if handle is not None:
                handle.__enter__()
            Bj = XB[j0:j1]
            tile = workspace.tile_view(i1 - i0, j1 - j0)
            if use_dist:
                np.matmul(Ai, Bj.T, out=tile)
                tile *= -2.0
                tile += na[:, None]
                tile += norms_b[j0:j1][None, :]
                np.maximum(tile, 0.0, out=tile)
            else:
                np.matmul(Ai, Bj.T, out=tile)
            tile = kernel._apply(
                tile, out=workspace.scratch_view(i1 - i0, j1 - j0)
            )
            # reduce against u while the tile is hot; never written back.
            w[i0:i1] += tile @ U[j0:j1]
            if handle is not None:
                handle.__exit__(None, None, None)

    registry().counter("gsks.tiles").inc(n_tiles)

    mt, nt = m, n
    count_flops(
        2 * mt * nt * d + kernel.flops_per_entry * mt * nt + 2 * mt * nt * k,
        label="gsks",
    )
    # memory traffic model: stream XA, XB, u, w once; tiles never spill.
    count_mops(mt * d + nt * d + nt * k + mt * k)
    return w[:, 0] if single else w
