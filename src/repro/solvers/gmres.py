"""GMRES: one Arnoldi core, orthogonalized by batched CGS2.

The paper solves the hybrid method's reduced system with PETSc's GMRES.
Here one Krylov loop serves every caller: :func:`gmres_batched` runs
GMRES(restart) on each column of an ``(n, k)`` panel in lockstep, each
column on its own Krylov space, and :func:`gmres` is its ``k = 1``
case.  Every iteration appends the k new basis vectors as one ``(k, n)``
row and orthogonalizes all k of them against the basis with classical
Gram-Schmidt, run twice (CGS2, "twice is enough") as batched matrix
products; ``reorthogonalize=False`` runs one pass.  Givens rotations
solve the small least-squares problem incrementally, and each column's
relative residual is recorded per iteration (Figure 5 plots these
histories).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.config import GMRESConfig
from repro.exceptions import ConvergenceWarning
from repro.obs import emit_warning, registry
from repro.util.flops import count_flops

__all__ = ["GMRESResult", "gmres", "gmres_batched", "gmres_unreported"]

#: a Hessenberg entry below this fraction of its column's norm is a
#: numerical zero — exact-zero tests miss breakdowns masked by roundoff
#: (a singular operator leaves a ~1e-16 pivot that, divided through,
#: poisons the update while the Givens recursion reports convergence).
_BREAKDOWN_RTOL = 1e-13

#: basis rows per allocation.  Krylov storage grows with the iterations
#: taken, not with ``max_iters``, and never by a copy (which would hold
#: two bases at once).
_CHUNK_ROWS = 64


@dataclass
class GMRESResult:
    """Outcome of a GMRES solve.

    Attributes
    ----------
    x:
        Approximate solution.
    converged:
        True when the relative residual reached the tolerance.
    n_iters:
        Total inner iterations (matvec count, across restarts).
    residuals:
        Relative residual norm after every iteration (index 0 is the
        initial residual, always 1.0 for a zero initial guess).
    breakdown:
        True when the Arnoldi/Givens recursion hit a zero Hessenberg
        pivot before converging (Krylov space exhausted — typically a
        singular operator).  The returned ``x`` is the minimum-norm
        least-squares solution over the space built so far.
    """

    x: np.ndarray
    converged: bool
    n_iters: int
    residuals: list[float] = field(default_factory=list)
    breakdown: bool = False

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")


def gmres(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    config: GMRESConfig | None = None,
    *,
    x0: np.ndarray | None = None,
    callback: Callable[[int, float], None] | None = None,
) -> GMRESResult:
    """Solve ``A x = b`` given only ``matvec(v) = A v``.

    Parameters
    ----------
    matvec:
        The operator.  It receives a copy of the iterate, so it may
        return or modify its argument.
    b:
        Right-hand side (1-D).
    config:
        Tolerance / iteration budget / restart length.
    x0:
        Initial guess (default zero).
    callback:
        Called as ``callback(iteration, relative_residual)`` after each
        inner step — the benchmark harness uses it to record
        residual-versus-work series.
    """
    config = config or GMRESConfig()
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError("gmres expects a 1-D right-hand side")
    (res,), seconds = _arnoldi(
        lambda V: np.reshape(matvec(V[:, 0]), (-1, 1)),
        b[:, None],
        config,
        x0,
        None if callback is None else (lambda it, rel: callback(it, float(rel[0]))),
    )
    if res.breakdown:
        emit_warning(
            "gmres.breakdown",
            f"GMRES breakdown: zero Hessenberg pivot after {res.n_iters} "
            f"iterations (relative residual {res.final_residual:.3e}, tol "
            f"{config.tol:.1e}); the operator is singular or the Krylov "
            "space is exhausted — returning the minimum-norm "
            "least-squares solution.",
            ConvergenceWarning,
            stacklevel=2,
        )
    elif not res.converged:
        emit_warning(
            "gmres.unconverged",
            f"GMRES stopped after {res.n_iters} iterations with relative "
            f"residual {res.final_residual:.3e} (tol {config.tol:.1e})",
            ConvergenceWarning,
            stacklevel=2,
        )
    _publish([res], *seconds)
    return res


def gmres_batched(
    matvec: Callable[[np.ndarray], np.ndarray],
    B: np.ndarray,
    config: GMRESConfig | None = None,
    *,
    x0: np.ndarray | None = None,
) -> list[GMRESResult]:
    """Solve ``A X = B`` for a panel of right-hand sides in lockstep.

    Each column runs GMRES on its own Krylov space, but all columns
    advance together: every iteration issues **one** ``matvec`` on an
    ``(n, k)`` block, so the operator sees BLAS-3 panels instead of
    ``k`` separate GEMVs, and the Gram-Schmidt products batch across
    columns.  A column that converges early rides along in the panel
    with its iterate, iteration count and history frozen at
    convergence, so each column's answer is the one a ``k = 1`` solve
    of it gives.  Columns that *break down* (zero Hessenberg pivot —
    e.g. a singular operator direction) are frozen the same way instead
    of stalling the whole panel: they keep their minimum-norm
    least-squares solution and are reported with ``breakdown=True``.

    Parameters
    ----------
    matvec:
        Operator accepting and returning ``(n, k)`` blocks (must act
        column-wise, i.e. represent one linear operator).  It receives
        a copy, so it may return or modify its argument.
    B:
        Right-hand sides, shape ``(n, k)``.
    config:
        Shared tolerance / iteration budget / restart length.
    x0:
        Optional initial guess, shape ``(n, k)``.

    Returns
    -------
    list of :class:`GMRESResult`, one per column (same fields as the
    single-vector solver, so callers can switch paths transparently).
    """
    config = config or GMRESConfig()
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError("gmres_batched expects a 2-D block of right-hand sides")
    results, seconds = _arnoldi(matvec, B, config, x0, None)
    bad = [c for c, res in enumerate(results) if not res.converged]
    if bad:
        worst = max(results[c].final_residual for c in bad)
        down = [c for c in bad if results[c].breakdown]
        extra = (
            f", {len(down)} of them by Hessenberg-pivot breakdown {down}"
            if down else ""
        )
        emit_warning(
            "gmres.batched_unconverged",
            f"batched GMRES stopped after "
            f"{max(res.n_iters for res in results)} iterations with "
            f"{len(bad)}/{len(results)} unconverged columns {bad}{extra} "
            f"(worst relative residual {worst:.3e}, tol {config.tol:.1e})",
            ConvergenceWarning,
            stacklevel=2,
        )
    _publish(results, *seconds)
    return results


def gmres_unreported(
    matvec: Callable[[np.ndarray], np.ndarray],
    B: np.ndarray,
    config: GMRESConfig,
) -> list[GMRESResult]:
    """:func:`gmres_batched`'s solve without its warning and metrics.

    For SPMD programs whose ranks all iterate the same solve: the caller
    reports rank 0's results once, where ``p`` rank threads would warn
    ``p`` times and rank processes would warn where nobody reads it.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError("gmres_unreported expects a 2-D block of right-hand sides")
    results, _seconds = _arnoldi(matvec, B, config, None, None)
    return results


def _publish(results: list[GMRESResult], operator_s: float, orthogonalize_s: float) -> None:
    """One solve's worth of GMRES telemetry into the metrics registry."""
    reg = registry()
    reg.counter("gmres.operator_s").inc(operator_s)
    reg.counter("gmres.orthogonalize_s").inc(orthogonalize_s)
    for res in results:
        reg.counter("gmres.solves").inc()
        reg.counter("gmres.iterations").inc(res.n_iters)
        if res.breakdown:
            reg.counter("gmres.breakdowns").inc()
        if not res.converged:
            reg.counter("gmres.unconverged").inc()
        reg.histogram("gmres.iters_per_solve").observe(res.n_iters)
        if res.residuals:
            reg.histogram("gmres.final_residual").observe(res.final_residual)


class _Basis:
    """Krylov basis: row ``i`` holds the k columns' ``i``-th vectors, ``(k, n)``.

    Rows live in fixed-size chunks allocated on first use, so storage
    follows the iterations taken; chunks are reused across restarts.
    """

    def __init__(self, k: int, n: int, max_rows: int) -> None:
        self._shape = (min(_CHUNK_ROWS, max_rows), k, n)
        self._chunks: list[np.ndarray] = []

    def row(self, i: int) -> np.ndarray:
        c, r = divmod(i, self._shape[0])
        if c == len(self._chunks):
            self._chunks.append(np.empty(self._shape))
        return self._chunks[c][r]

    def blocks(self, rows: int):
        """``(lo, hi, V)`` over rows ``0..rows-1``; ``V`` is ``(k, hi - lo, n)``."""
        size = self._shape[0]
        for lo in range(0, rows, size):
            hi = min(lo + size, rows)
            yield lo, hi, self._chunks[lo // size][: hi - lo].transpose(1, 0, 2)


def _cgs(basis: _Basis, rows: int, W: np.ndarray, passes: int) -> np.ndarray:
    """Classical Gram-Schmidt of ``W`` (k, n) against basis rows ``0..rows-1``.

    Each pass projects all k vectors out at once — per chunk, one batched
    product for the coefficients and one for the update.  Returns the
    summed coefficients, ``(rows, k)``.
    """
    blocks = list(basis.blocks(rows))
    h = np.zeros((W.shape[0], rows))
    for _ in range(passes):
        coeffs = [np.matmul(V, W[:, :, None])[:, :, 0] for _, _, V in blocks]
        for (lo, hi, V), c in zip(blocks, coeffs):
            W -= np.matmul(c[:, None, :], V)[:, 0]
            h[:, lo:hi] += c
    count_flops(4 * rows * W.size * passes, label="gmres_cgs")
    return h.T


def _arnoldi(
    matvec: Callable[[np.ndarray], np.ndarray],
    B: np.ndarray,
    config: GMRESConfig,
    x0: np.ndarray | None,
    callback: Callable[[int, np.ndarray], None] | None,
) -> tuple[list[GMRESResult], list[float]]:
    """GMRES(restart) on every column of ``B`` (n, k) in lockstep.

    Returns the per-column results and the seconds spent in the operator
    and in orthogonalization.
    """
    from repro.resilience.deadline import current_deadline

    dl = current_deadline()  # soft stop: expiry ends iteration, never raises
    n, k = B.shape
    bnorm = np.linalg.norm(B, axis=0)
    nonzero = bnorm > 0.0
    safe_bnorm = np.where(nonzero, bnorm, 1.0)
    restart = config.restart or config.max_iters
    passes = 2 if config.reorthogonalize else 1
    X = np.zeros((n, k)) if x0 is None else np.array(x0, dtype=np.float64).reshape(n, k)
    X[:, ~nonzero] = 0.0  # a zero right-hand side is solved exactly by 0
    seconds = [0.0, 0.0]  # operator, orthogonalization

    def apply(Y: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        out = matvec(Y.copy())  # the operator may return or edit its argument
        seconds[0] += time.perf_counter() - t0
        return out

    residuals: list[list[float]] = [[] if nz else [0.0] for nz in nonzero]
    n_iters = np.zeros(k, dtype=np.int64)
    converged = ~nonzero
    broken = np.zeros(k, dtype=bool)
    basis = _Basis(k, n, restart + 1)

    total = 0
    stopped = False
    while total < config.max_iters and not stopped and not (converged | broken).all():
        R = B - apply(X) if (x0 is not None or total > 0) else B
        beta = np.linalg.norm(R, axis=0)
        rel = beta / safe_bnorm
        if total == 0:
            for c in np.flatnonzero(nonzero):
                residuals[c].append(float(rel[c]))
        converged |= nonzero & (rel < config.tol)
        broken &= ~converged
        active = ~converged & ~broken
        if not active.any():
            break
        basis.row(0)[:] = (R / np.where(beta > 0.0, beta, 1.0)).T
        cs: list[np.ndarray] = []  # Givens rotations, one (k,) pair per step
        sn: list[np.ndarray] = []
        g = [beta]  # rotated right-hand side of the least-squares problem
        Rcols: list[np.ndarray] = []  # rotated Hessenberg columns (upper triangle)
        steps = np.zeros(k, dtype=np.int64)  # each column's Krylov dimension
        for j in range(restart):
            if total >= config.max_iters:
                break
            if dl is not None and dl.expired:
                # out of budget: keep the best iterate built so far — a
                # degraded-but-finite answer beats an exception here (the
                # caller's degradation ladder records the rung).
                stopped = True
                break
            W = basis.row(j + 1)
            W[:] = apply(basis.row(j).T).T
            t0 = time.perf_counter()
            h = np.empty((j + 2, k))
            h[: j + 1] = _cgs(basis, j + 1, W, passes)
            h[j + 1] = np.linalg.norm(W, axis=1)
            seconds[1] += time.perf_counter() - t0
            colnorm = np.sqrt(np.einsum("ik,ik->k", h, h))
            # columns whose Krylov space closed (to roundoff) get a zero
            # direction and are protected in the triangular solve.
            hz = h[j + 1] <= colnorm * _BREAKDOWN_RTOL
            h[j + 1, hz] = 0.0
            W /= np.where(hz, 1.0, h[j + 1])[:, None]
            W[hz] = 0.0

            rows = list(h)  # (k,) rows: rotating them skips 2-D indexing
            for i in range(j):  # accumulated rotations, per column
                a, b = rows[i], rows[i + 1]
                rows[i] = cs[i] * a + sn[i] * b
                rows[i + 1] = -sn[i] * a + cs[i] * b
            denom = np.hypot(rows[j], rows[j + 1])
            dz = denom <= colnorm * _BREAKDOWN_RTOL
            denom_safe = np.where(dz, 1.0, denom)
            cs.append(np.where(dz, 1.0, rows[j] / denom_safe))
            sn.append(np.where(dz, 0.0, rows[j + 1] / denom_safe))
            # breakdown columns zero the pivot so back-substitution takes
            # the minimum-norm branch instead of dividing by roundoff.
            rows[j] = np.where(dz, 0.0, cs[j] * rows[j] + sn[j] * rows[j + 1])
            Rcols.append(np.array(rows[: j + 1]))
            g.append(-sn[j] * g[j])
            g[j] = cs[j] * g[j]

            total += 1
            steps += active
            n_iters += active
            # dz columns hit a zero Hessenberg pivot: the degenerate
            # rotation zeroes g[j+1], so their true min-norm LS residual
            # keeps the g[j] term (cs=1 left it unchanged).
            rel = np.where(dz, np.abs(g[j]), np.abs(g[j + 1])) / safe_bnorm
            for c in np.flatnonzero(active):
                residuals[c].append(float(rel[c]))
            if callback is not None:
                callback(total, rel)
            converged |= active & (rel < config.tol)
            active &= ~converged
            # hard breakdown: pivot lost *and* not at tolerance — freeze
            # the column like a converged one instead of letting it spin
            # the whole panel through every remaining restart.
            broken |= active & dz
            active &= ~broken
            if not active.any():
                break

        if not Rcols:
            break
        Y = _back_substitute(Rcols, g, steps)
        update = np.zeros((k, n))
        for lo, hi, V in basis.blocks(len(Rcols)):
            update += np.matmul(Y[lo:hi].T[:, None, :], V)[:, 0]
        X += update.T
        count_flops(2 * len(Rcols) * n * k, label="gmres_update")

    results = [
        GMRESResult(
            x=X[:, c].copy(),
            converged=bool(converged[c]),
            n_iters=int(n_iters[c]),
            residuals=residuals[c],
            breakdown=bool(broken[c]),
        )
        for c in range(k)
    ]
    return results, seconds


def _back_substitute(Rcols: list[np.ndarray], g: list[np.ndarray], steps: np.ndarray) -> np.ndarray:
    """Solve each column's triangular system over its own ``steps`` rows.

    ``Rcols[i]`` is column ``i`` of the rotated Hessenberg matrix, rows
    ``0..i``, for all k columns.  Rows at or past a column's ``steps``
    were built after it froze and take ``y = 0``, so a frozen column's
    update is the one its own solve would make.  A zero diagonal
    (breakdown) also takes the minimum-norm ``y = 0`` — dividing by a
    tiny stand-in would blow the update up by ~1e308 instead.
    """
    m = len(Rcols)
    rhs = np.array(g[:m])
    Y = np.zeros_like(rhs)
    for i in range(m - 1, -1, -1):
        d = Rcols[i][i]
        use = (i < steps) & (d != 0.0)
        Y[i] = np.where(use, rhs[i] / np.where(use, d, 1.0), 0.0)
        rhs[:i] -= Rcols[i][:i] * Y[i]
    return Y
