"""Configuration dataclasses for the tree, skeletonization, and solver.

The parameter names mirror the paper's notation:

* ``m`` — leaf node size (``leaf_size``)
* ``s`` / ``smax`` — (maximum) skeleton size (``rank`` / ``max_rank``)
* ``tau`` — relative tolerance for adaptive rank selection
* ``kappa`` — number of nearest neighbors used for skeletonization
  sampling (``num_neighbors``)
* ``L`` — level restriction (``level_restriction``)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError

__all__ = [
    "TreeConfig",
    "SkeletonConfig",
    "SolverConfig",
    "GMRESConfig",
    "RecoveryConfig",
    "ResilienceConfig",
]


@dataclass(frozen=True)
class TreeConfig:
    """Ball-tree construction parameters (paper section II-A).

    Attributes
    ----------
    leaf_size:
        ``m``: recursion stops when a node holds at most this many
        points.  All leaves end up at the same level because splits are
        median (equal-size) splits.
    seed:
        Seed for the randomized choice of splitting directions.
    """

    leaf_size: int = 64
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.leaf_size < 1:
            raise ConfigurationError(f"leaf_size must be >= 1; got {self.leaf_size}")


@dataclass(frozen=True)
class SkeletonConfig:
    """Skeletonization (ASKIT) parameters (paper section II-A).

    Attributes
    ----------
    rank:
        Fixed skeleton size ``s``.  If ``None``, the rank is chosen
        adaptively per node from ``tau`` (capped at ``max_rank``).
    max_rank:
        ``smax``: hard cap on the skeleton size.
    tau:
        Adaptive-rank tolerance: the rank is the smallest ``s`` with
        ``sigma_{s+1}/sigma_1 < tau`` estimated from the pivoted-QR
        diagonal.
    num_neighbors:
        ``kappa``: per-point near neighbors blended into the row sample
        used by the interpolative decomposition.
    num_samples:
        Total size of the sampled row set ``S'`` (neighbors + uniform).
    level_restriction:
        ``L``: nodes at tree level < L are never skeletonized; the
        skeletonization frontier sits at level L (or deeper, if adaptive
        stopping also triggers).  ``0`` disables restriction: everything
        but the root is skeletonized.
    adaptive_stop:
        If True, stop skeletonizing a node when the ID achieves no
        compression (``alpha~ = l~ u r~``), pushing the frontier down
        adaptively as described in the paper's "level restriction" notes.
    seed:
        Seed for sampling.
    """

    rank: int | None = None
    max_rank: int = 256
    tau: float = 1e-5
    num_neighbors: int = 32
    num_samples: int = 512
    level_restriction: int = 0
    adaptive_stop: bool = False
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.rank is not None and self.rank < 1:
            raise ConfigurationError(f"rank must be >= 1; got {self.rank}")
        if self.max_rank < 1:
            raise ConfigurationError(f"max_rank must be >= 1; got {self.max_rank}")
        if not (0.0 < self.tau < 1.0):
            raise ConfigurationError(f"tau must be in (0, 1); got {self.tau}")
        if self.num_neighbors < 0:
            raise ConfigurationError("num_neighbors must be >= 0")
        if self.num_samples < 1:
            raise ConfigurationError("num_samples must be >= 1")
        if self.level_restriction < 0:
            raise ConfigurationError("level_restriction must be >= 0")

    @property
    def effective_rank_cap(self) -> int:
        return self.rank if self.rank is not None else self.max_rank


@dataclass(frozen=True)
class GMRESConfig:
    """Krylov parameters for the hybrid solver and iterative baselines."""

    tol: float = 1e-10
    max_iters: int = 200
    restart: int | None = None
    reorthogonalize: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < 1.0):
            raise ConfigurationError(f"tol must be in (0, 1); got {self.tol}")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if self.restart is not None and self.restart < 1:
            raise ConfigurationError("restart must be >= 1 or None")


@dataclass(frozen=True)
class RecoveryConfig:
    """Numerical recovery ladder (docs/ROBUSTNESS.md).

    When ``enabled``, blocks whose reciprocal condition estimate falls
    below ``rcond_breakdown`` during factorization trigger escalation
    instead of a warning: first a per-subtree lambda bump
    (re-factorizing just the offending subtree), then — via
    :func:`repro.solvers.recovery.robust_factorize` — a hybrid
    factorization with the frontier moved one level down, then plain
    preconditioned GMRES on ``lambda I + K~``.  Every rung taken is
    recorded in a :class:`repro.solvers.recovery.SolverHealth` report.

    Attributes
    ----------
    enabled:
        Off by default: plain :func:`repro.solvers.factorize` keeps its
        detect-and-warn behavior (paper section III) unless recovery is
        requested.
    rcond_breakdown:
        rcond below this is a *breakdown*, not merely ill-conditioning
        (the warn threshold ``cond_threshold`` is separate and softer).
    max_lambda_bumps:
        Ladder-rung-1 budget: attempts at bumping lambda on the
        offending diagonal blocks before escalating.
    lambda_bump0:
        First bump, relative to the 1-norm of the leaf block; each
        further attempt multiplies it by ``lambda_bump_factor``.
    solve_residual_limit:
        :func:`repro.solvers.recovery.robust_solve` escalates to the
        iterative rung when the verified relative residual of a solve
        exceeds this.
    """

    enabled: bool = False
    rcond_breakdown: float = 1e-13
    max_lambda_bumps: int = 3
    lambda_bump0: float = 1e-12
    lambda_bump_factor: float = 100.0
    solve_residual_limit: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.rcond_breakdown < 1.0):
            raise ConfigurationError(
                f"rcond_breakdown must be in (0, 1); got {self.rcond_breakdown}"
            )
        if self.max_lambda_bumps < 1:
            raise ConfigurationError("max_lambda_bumps must be >= 1")
        if self.lambda_bump0 <= 0.0:
            raise ConfigurationError("lambda_bump0 must be > 0")
        if self.lambda_bump_factor < 1.0:
            raise ConfigurationError("lambda_bump_factor must be >= 1")
        if self.solve_residual_limit <= 0.0:
            raise ConfigurationError("solve_residual_limit must be > 0")


@dataclass(frozen=True)
class ResilienceConfig:
    """Deadline-aware execution and checkpoint/restart (docs/ROBUSTNESS.md).

    When ``deadline_seconds`` (wall-clock, monotonic) or ``work_budget``
    (abstract units: one per node skeletonization / node factorization /
    Krylov iteration) is set, the facade installs a
    :class:`repro.resilience.Deadline` around ``fit``/``factorize``/
    ``solve``.  Cooperative checks at tree-node, factorization-level,
    and solver-iteration granularity then bound how far past the budget
    a run can go.

    With ``degrade`` on (the default), running out of budget steps down
    a ladder instead of raising:

    1. **coarsen** — skeletonization multiplies ``tau`` by 10 each
       time deadline pressure crosses a threshold (first at half the
       budget; :class:`repro.resilience.CoarsenPolicy`);
    2. **freeze-frontier** — factorization stops at the last completed
       level and the solve finishes with the hybrid GMRES path on the
       frozen frontier;
    3. **iterative** — preconditioned GMRES on ``lambda I + K~``.

    With ``degrade`` off, budget exhaustion raises
    :class:`~repro.exceptions.DeadlineExceededError`.

    ``checkpoint_dir`` enables the versioned on-disk ``repro.checkpoint/v1``
    format: a snapshot after skeletonization and after each completed
    factorization level, so a killed run resumes from the last completed
    level via :meth:`FastKernelSolver.resume`.

    Attributes
    ----------
    deadline_seconds:
        Wall-clock budget for the whole fit+factorize+solve pipeline
        (``None`` = unlimited).
    work_budget:
        Deterministic work-unit budget (``None`` = unlimited).
    checkpoint_dir:
        Directory for ``repro.checkpoint/v1`` snapshots (``None`` = off).
    degrade:
        Step down the degradation ladder under budget pressure instead
        of raising.
    """

    deadline_seconds: float | None = None
    work_budget: int | None = None
    checkpoint_dir: str | None = None
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be > 0; got {self.deadline_seconds}"
            )
        if self.work_budget is not None and self.work_budget < 1:
            raise ConfigurationError(
                f"work_budget must be >= 1; got {self.work_budget}"
            )

    @property
    def active(self) -> bool:
        """True when any resilience feature is switched on."""
        return (
            self.deadline_seconds is not None
            or self.work_budget is not None
            or self.checkpoint_dir is not None
        )


@dataclass(frozen=True)
class SolverConfig:
    """Factorization/solve strategy selection.

    Attributes
    ----------
    method:
        * ``"nlogn"`` — Algorithm II.2, the paper's O(N log N)
          telescoping factorization (default).
        * ``"nlog2n"`` — the INV-ASKIT [36] baseline with recursive
          subtree solves, O(N log^2 N).
        * ``"direct"`` — level-restricted direct factorization: dense LU
          of the coalesced reduced system (paper section II-C; equals
          "nlogn" when the frontier is the root's children).
        * ``"hybrid"`` — partial factorization below the frontier +
          GMRES on ``(I + V W)`` (Algorithm II.6), matrix-free until
          its applications have cost one assembly of the matrix.
    summation:
        Kernel-summation strategy for off-diagonal blocks during solves
        ("precomputed" / "reevaluate" / "fused"), Table IV.
    gmres:
        Krylov parameters for the hybrid reduced solve.
    check_stability:
        Monitor condition numbers of leaf blocks and reduced systems and
        warn (paper section III).
    cond_threshold:
        1/rcond above which a :class:`~repro.exceptions.StabilityWarning`
        is emitted.
    """

    method: str = "nlogn"
    summation: str = "precomputed"
    gmres: GMRESConfig = field(default_factory=GMRESConfig)
    check_stability: bool = True
    cond_threshold: float = 1e12
    #: "full" stores every P^ block (O(sN log N) memory, fastest solves);
    #: "low" keeps only leaf and frontier P^ (O(sN)) and re-telescopes the
    #: internal ones per solve via eq. (10) — the paper's section III
    #: memory-reduction scheme (O((d + s^2) N log N) work per solve,
    #: still O(N log N)).
    storage: str = "full"

    #: vMPI execution backend for the distributed paths: "thread"
    #: (shared-memory mailboxes, debuggable), "socket" (true multi-core:
    #: spawned rank processes over TCP + shared-memory transport), or
    #: None to defer to the REPRO_VMPI_BACKEND environment
    #: (docs/PARALLELISM.md).
    backend: str | None = None

    #: incremental updates (docs/UPDATES.md): when a point
    #: insertion/deletion dirties more than this fraction of the point
    #: set (touched leaves + their subtree populations), ``update()``
    #: falls back to a full rebuild — past that point the local repair
    #: does most of the rebuild's work anyway while the frozen-topology
    #: tree keeps drifting from balance.
    update_rebuild_threshold: float = 0.25

    #: numerical recovery ladder (off by default; see RecoveryConfig).
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    #: deadlines, work budgets, checkpoint/restart, degradation ladder
    #: (all off by default; see ResilienceConfig).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    _METHODS = ("nlogn", "nlog2n", "direct", "hybrid")

    #: fields that select *how* to execute, not *what* to compute — both
    #: backends produce bitwise-identical factors, so checkpoint
    #: fingerprints ignore them (see resilience/checkpoint.py).
    _FINGERPRINT_EXCLUDE = frozenset({"backend", "update_rebuild_threshold"})

    def __post_init__(self) -> None:
        if self.method not in self._METHODS:
            raise ConfigurationError(
                f"method must be one of {self._METHODS}; got {self.method!r}"
            )
        if self.summation not in ("precomputed", "reevaluate", "fused"):
            raise ConfigurationError(
                f"summation must be precomputed|reevaluate|fused; got {self.summation!r}"
            )
        if self.cond_threshold <= 1:
            raise ConfigurationError("cond_threshold must be > 1")
        if self.storage not in ("full", "low"):
            raise ConfigurationError(
                f"storage must be 'full' or 'low'; got {self.storage!r}"
            )
        if self.backend is not None and self.backend not in ("thread", "socket"):
            raise ConfigurationError(
                f"backend must be 'thread', 'socket', or None; got {self.backend!r}"
            )
        if not 0.0 < self.update_rebuild_threshold <= 1.0:
            raise ConfigurationError(
                "update_rebuild_threshold must be in (0, 1]; "
                f"got {self.update_rebuild_threshold!r}"
            )
        if self.storage == "low" and self.method == "nlog2n":
            raise ConfigurationError(
                "low-storage mode requires the telescoping methods "
                "(the [36] recursion cannot re-derive P^ cheaply)"
            )
