"""Correctness checks and summary statistics.

Every check returns the number of operations it fails, so a workload
adds them to its ``failed`` count; ``perfbench/test_checks.py`` feeds
each one a corrupted answer.
"""

from __future__ import annotations

import math

import numpy as np

#: relative errors below this read as the float64 floor (about 16 digits).
_FLOOR = 1e-16


def digits(rel_err: float) -> float:
    """``-log10`` of a relative error; a non-finite error reads as 0 digits."""
    if not math.isfinite(rel_err):
        return 0.0
    return -math.log10(max(rel_err, _FLOOR))


def column_residuals(apply_op, U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Per-column ``||(lam I + K~) w - u|| / ||u||``; ``apply_op(W)`` is the operator."""
    U2 = U[:, None] if U.ndim == 1 else U
    W2 = W[:, None] if W.ndim == 1 else W
    R = apply_op(W2) - U2
    return np.linalg.norm(R, axis=0) / np.linalg.norm(U2, axis=0)


def residual_failures(residuals, floor_digits: float) -> int:
    """Columns whose residual misses the ``solve_digits`` floor (NaN misses)."""
    res = np.asarray(residuals, dtype=np.float64)
    return int(np.count_nonzero(~(res <= 10.0 ** -floor_digits)))


def approx_error(matvec, exact_rows, rows: np.ndarray, v: np.ndarray) -> float:
    """eps2 = ||(K~ v)_S - (K v)_S|| / ||(K v)_S|| on the sampled rows S.

    ``matvec(v)`` is the fast product ``K~ v`` over all points;
    ``exact_rows(rows, v)`` evaluates ``(K v)_S`` from the kernel itself.
    """
    approx = matvec(v)[rows]
    exact = exact_rows(rows, v)
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


def approx_failures(eps2: float, bound: float) -> int:
    """1 when eps2 is above its bound (or not a number)."""
    return 0 if eps2 <= bound else 1


def gmres_failures(histories, tol: float, n_warnings: int = 0) -> int:
    """Unconverged GMRES columns plus ``gmres.batched_unconverged`` warnings.

    ``histories`` holds each column's relative residual history; a column
    converged when its last entry is below ``tol`` (the solver's own test).
    """
    unconverged = sum(1 for h in histories if not len(h) or not h[-1] < tol)
    return unconverged + int(n_warnings)


def mismatch_failures(w: np.ndarray, ref: np.ndarray, rtol: float) -> int:
    """1 when ``w`` differs from the reference by more than ``rtol`` (relative)."""
    w = np.asarray(w, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if w.shape != ref.shape:
        return 1
    err = np.linalg.norm(w - ref) / max(np.linalg.norm(ref), _FLOOR)
    return 0 if err <= rtol else 1


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values, min_beyond: int = 10):
    """Highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(value, percentile, n_samples)``; ``value`` is None when
    there are too few samples for any such percentile.  Non-finite
    values (failed requests) sort last, so they count as slow.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n <= min_beyond:
        return None, None, n
    # the k-th smallest value has n - k samples above it
    k = n - min_beyond
    return float(x[k - 1]), round(100.0 * k / n, 2), n
