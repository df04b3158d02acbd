"""Interpolative decomposition via pivoted rank-revealing QR (eq. 4).

Given a sample block ``G = K_{S' alpha}`` (rows: sampled outside
points, columns: the node's candidate points), find ``s`` columns
(the skeleton) and a projection ``P`` with ``G ~= G[:, skel] @ P`` and
``P[:, skel] = I``.  The rank is revealed by the decay of ``|R_kk|``
from the pivoted QR, exactly the sigma estimates the paper uses for
its ``sigma_{s+1}/sigma_1 < tau`` criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import lapack
from repro.util.flops import count_flops

__all__ = ["IDResult", "interpolative_decomposition"]


@dataclass
class IDResult:
    """Result of an interpolative decomposition.

    Attributes
    ----------
    skeleton:
        Local column indices of the skeleton, shape (s,), in pivot order.
    proj:
        Projection ``P`` with ``G ~= G[:, skeleton] @ P``; shape (s, n)
        with ``proj[:, skeleton] == I_s``.
    rdiag:
        Absolute values of the R diagonal (the singular-value estimates).
    achieved_tol:
        ``rdiag[s] / rdiag[0]`` — the first *discarded* ratio (0.0 when
        nothing was discarded).  Compare against ``tau``.
    compressed:
        True when s < n (the ID actually reduced the column count).
    """

    skeleton: np.ndarray
    proj: np.ndarray
    rdiag: np.ndarray
    achieved_tol: float
    compressed: bool

    @property
    def rank(self) -> int:
        return len(self.skeleton)


def _select_rank(
    rdiag: np.ndarray, tau: float, max_rank: int, fixed_rank: int | None
) -> int:
    """Rank from the R-diagonal decay (or a fixed request), always >= 1."""
    kmax = len(rdiag)
    if kmax == 0:
        return 0
    if fixed_rank is not None:
        return max(1, min(fixed_rank, kmax))
    scale = rdiag[0]
    if scale <= 0.0:
        return 1
    below = np.nonzero(rdiag < tau * scale)[0]
    rank = int(below[0]) if len(below) else kmax
    return max(1, min(rank, max_rank, kmax))


def interpolative_decomposition(
    G: np.ndarray,
    *,
    tau: float = 1e-5,
    max_rank: int = 256,
    fixed_rank: int | None = None,
) -> IDResult:
    """Column ID of ``G`` with adaptive (or fixed) rank.

    Parameters
    ----------
    G:
        Sample block, shape (n_samples, n_candidates).
    tau:
        Relative tolerance on the R-diagonal decay (adaptive mode).
    max_rank:
        ``smax`` cap on the adaptive rank.
    fixed_rank:
        If given, use exactly this rank (clipped to ``min(G.shape)``).

    Notes
    -----
    The projection is computed from the triangular factor:
    with ``G P_cols = Q R = Q [R11 R12]``, the interpolation is
    ``T = R11^{-1} R12`` and ``P[:, piv] = [I T]``.  Singular leading
    blocks (exactly rank-deficient G) are handled by truncating to the
    numerical rank before the triangular solve.
    """
    G = np.ascontiguousarray(G, dtype=np.float64)
    if G.ndim != 2:
        raise ValueError(f"G must be 2-D; got shape {G.shape}")
    nsamp, ncols = G.shape
    if ncols == 0:
        raise ValueError("G must have at least one column")

    count_flops(4 * nsamp * ncols * min(nsamp, ncols), label="id_qr")
    # scipy's pivoted QR is LAPACK dgeqp3 — the paper's rank-revealing QR.
    R, piv = lapack.qr(G)
    rdiag = np.abs(np.diag(R))

    rank = _select_rank(rdiag, tau, max_rank, fixed_rank)
    if rank == 0:  # empty sample set: degenerate, keep one column.
        rank = min(1, ncols)
        piv = np.arange(ncols)
        rdiag = np.zeros(min(1, ncols))

    # Truncate to numerical rank for the triangular solve; any requested
    # rank beyond it adds columns whose coefficients we set to zero.
    eps_rank = rdiag[0] * max(nsamp, ncols) * np.finfo(np.float64).eps if len(rdiag) else 0.0
    solve_rank = int(np.count_nonzero(rdiag > eps_rank))
    solve_rank = min(solve_rank, rank)

    T = np.zeros((rank, ncols - rank))
    if solve_rank > 0 and ncols > rank:
        T[:solve_rank] = lapack.solve_triangular(
            R[:solve_rank, :solve_rank], R[:solve_rank, rank:], lower=False
        )
        count_flops(solve_rank * solve_rank * (ncols - rank), label="id_trsm")

    proj = np.zeros((rank, ncols))
    proj[:, piv[:rank]] = np.eye(rank)
    proj[:, piv[rank:]] = T

    if rank < len(rdiag) and rdiag[0] > 0:
        achieved = float(rdiag[rank] / rdiag[0])
    else:
        achieved = 0.0
    return IDResult(
        skeleton=np.asarray(piv[:rank], dtype=np.intp),
        proj=proj,
        rdiag=rdiag,
        achieved_tol=achieved,
        compressed=rank < ncols,
    )
