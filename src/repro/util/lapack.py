"""Serialized LAPACK entry points.

The virtual-MPI thread ranks and concurrent solves call LAPACK from
multiple Python threads.  Some OpenBLAS builds (including
the scipy-openblas wheels) are not thread-safe for the LAPACK solve
wrappers even with ``OPENBLAS_NUM_THREADS=1`` — concurrent ``getrs``
calls occasionally return corrupted results (observed directly in this
environment; upstream OpenBLAS needs ``USE_LOCKING=1`` for this).

Every LAPACK call that can run on a worker thread therefore goes
through this module, which serializes them behind one process-wide
lock.  GEMM-class operations (``@`` / ``np.matmul``) are unaffected and
stay lock-free, so the heavy arithmetic still overlaps; only the small
factor/solve calls serialize.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.linalg

__all__ = [
    "lu_factor",
    "lu_solve",
    "qr",
    "solve_triangular",
    "gecon",
    "gecon_batched",
    "lu_factor_batched",
    "lu_factor_solve_batched",
    "lu_solve_batched",
]

_LOCK = threading.Lock()


def lu_factor(A: np.ndarray):
    """Locked ``scipy.linalg.lu_factor`` (check_finite disabled)."""
    with _LOCK:
        return scipy.linalg.lu_factor(A, check_finite=False)


def lu_solve(lu_piv, b: np.ndarray) -> np.ndarray:
    """Locked ``scipy.linalg.lu_solve`` (check_finite disabled)."""
    with _LOCK:
        return scipy.linalg.lu_solve(lu_piv, b, check_finite=False)


def lu_factor_batched(
    A: np.ndarray, *, overwrite_a: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Locked LU of a ``(b, n, n)`` stack under one lock acquisition.

    Returns ``(lu, piv)`` with shapes ``(b, n, n)`` / ``(b, n)``,
    bitwise identical to per-slice :func:`lu_factor` calls: ``dgetrf``
    is the exact routine ``scipy.linalg.lu_factor`` dispatches to (same
    input bytes, same output bytes), invoked here without the per-call
    Python wrapper overhead — scipy's own N-D path (>= 1.17) loops per
    slice through that wrapper and is ~2x slower for small matrices.

    The returned ``lu`` stack has Fortran-contiguous slices (one bulk
    strided copy up front) so every ``dgetrf`` factors its slice in
    place — no per-slice f2py copy in, no output allocation — and so
    downstream ``dgetrs``/``dgecon`` calls take the copy-free path too.
    ``overwrite_a`` factors ``A`` itself when its slices are already
    Fortran-contiguous (the caller loses ``A``'s values), skipping the
    upfront copy entirely.
    """
    b, n = A.shape[0], A.shape[-1]
    piv = np.empty((b, n), dtype=np.int32)
    if overwrite_a and A.dtype == np.float64 and (n == 0 or A[0].flags.f_contiguous):
        lu = A
    else:
        lu = np.empty((b, n, n), dtype=np.float64).transpose(0, 2, 1)
        if n:
            np.copyto(lu, A)
    if n == 0:
        return lu, piv
    getrf = scipy.linalg.lapack.dgetrf
    with _LOCK:
        for i in range(b):
            _, piv[i], _ = getrf(lu[i], overwrite_a=1)
    return lu, piv


def lu_solve_batched(lu_piv, B: np.ndarray, *, overwrite_b: bool = False) -> np.ndarray:
    """Locked solve of a factored ``(b, n, n)`` stack against ``(b, n, k)``.

    ``lu_piv`` may also hold sequences of ``b`` per-slice factors.
    Bitwise identical to per-slice :func:`lu_solve` calls (``dgetrs``
    is the routine ``scipy.linalg.lu_solve`` dispatches to).  The
    output slices are Fortran-strided on purpose: ``lu_solve`` returns
    F-ordered solutions, and ``np.matmul`` picks layout-dependent GEMM
    paths whose results differ in the last bit — a C-ordered stack here
    would silently change the bits of GEMMs two levels downstream.
    ``overwrite_b`` solves in place when ``B``'s slices are already
    Fortran-contiguous float64.
    """
    lu, piv = lu_piv
    b, n, k = B.shape
    if (
        overwrite_b
        and B.dtype == np.float64
        and (n == 0 or k == 0 or B[0].flags.f_contiguous)
    ):
        out = B
        if n == 0 or k == 0:
            return out
    else:
        out = np.empty((b, k, n), dtype=np.float64).transpose(0, 2, 1)
        if n == 0 or k == 0:
            return out
        np.copyto(out, B)
    getrs = scipy.linalg.lapack.dgetrs
    with _LOCK:
        for i in range(b):
            getrs(lu[i], piv[i], out[i], overwrite_b=1)
    return out


def lu_factor_solve_batched(
    A: np.ndarray,
    B: np.ndarray,
    *,
    overwrite_a: bool = False,
    overwrite_b: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LU-factor a stack and solve against it under one lock acquisition.

    Returns ``(lu, piv, x)`` bitwise identical to
    :func:`lu_factor_batched` followed by :func:`lu_solve_batched`: each
    slice runs ``dgetrf`` then ``dgetrs``, the routines
    :func:`lu_factor` / :func:`lu_solve` dispatch to.  (The fused
    ``dgesv`` is not used: with more than one OpenBLAS thread its LU can
    differ from ``dgetrf``'s in the last bit.)  Layout and overwrite
    semantics match the unfused pair.
    """
    b, n = A.shape[0], A.shape[-1]
    k = B.shape[-1]
    piv = np.empty((b, n), dtype=np.int32)
    if overwrite_a and A.dtype == np.float64 and (n == 0 or A[0].flags.f_contiguous):
        lu = A
    else:
        lu = np.empty((b, n, n), dtype=np.float64).transpose(0, 2, 1)
        if n:
            np.copyto(lu, A)
    if (
        overwrite_b
        and B.dtype == np.float64
        and (n == 0 or k == 0 or B[0].flags.f_contiguous)
    ):
        x = B
    else:
        x = np.empty((b, k, n), dtype=np.float64).transpose(0, 2, 1)
        if n and k:
            np.copyto(x, B)
    if n == 0:
        return lu, piv, x
    getrf = scipy.linalg.lapack.dgetrf
    getrs = scipy.linalg.lapack.dgetrs
    with _LOCK:
        for i in range(b):
            _, piv[i], _ = getrf(lu[i], overwrite_a=1)
            if k:
                getrs(lu[i], piv[i], x[i], overwrite_b=1)
    return lu, piv, x


def qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Locked column-pivoted QR (``dgeqp3``) without forming ``Q``.

    Returns ``(R, piv)``: the economy ``R`` (``min(m, n)`` rows) and the
    column permutation, bitwise those of ``scipy.linalg.qr(A,
    mode="economic", pivoting=True)``, which also runs ``dorgqr``.
    """
    with _LOCK:
        R, piv = scipy.linalg.qr(A, mode="r", pivoting=True)
    return R[: min(A.shape)], piv


def solve_triangular(R: np.ndarray, B: np.ndarray, *, lower: bool = False):
    """Locked triangular solve."""
    with _LOCK:
        return scipy.linalg.solve_triangular(R, B, lower=lower)


def gecon(lu: np.ndarray, anorm: float):
    """Locked LAPACK ``dgecon`` reciprocal-condition estimate."""
    with _LOCK:
        return scipy.linalg.lapack.dgecon(lu, anorm, norm="1")


def gecon_batched(lu: np.ndarray, anorms: np.ndarray) -> np.ndarray:
    """``dgecon`` over a factored ``(b, n, n)`` stack, one lock, one pass.

    Returns the ``(b,)`` rcond estimates, each bitwise equal to a
    per-slice :func:`gecon` call.  Negative ``info`` (argument error)
    raises ``ValueError`` like scipy's wrapper would.
    """
    b = lu.shape[0]
    rconds = np.empty(b)
    if b == 0 or lu.shape[-1] == 0:
        rconds.fill(1.0)
        return rconds
    dgecon = scipy.linalg.lapack.dgecon
    with _LOCK:
        for i in range(b):
            rconds[i], info = dgecon(lu[i], anorms[i], norm="1")
            if info < 0:  # pragma: no cover - lapack argument error
                raise ValueError(f"dgecon failed with info={info}")
    return rconds
