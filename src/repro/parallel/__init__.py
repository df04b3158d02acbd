"""Distributed-memory parallelization (paper section II-B, Figure 1).

The paper runs on MPI; this environment has no MPI, so
:mod:`repro.parallel.vmpi` provides a deterministic message-passing
runtime with the mpi4py API surface (ranks are threads by default, or
spawned processes over TCP with ``backend="socket"``; messages are
tagged mailbox entries, collectives are binomial trees over
point-to-point sends so message *counts* match a real MPI tree
implementation).  :mod:`repro.parallel.dist_solver` implements
Algorithms II.4 (DistFactorize) and II.5 (DistSolve) verbatim against
that API, and the fabric's byte/message counters verify the paper's
O(s^2 log^2 p) communication bound.
"""

from repro.parallel.vmpi import Communicator, CommStats, World, run_spmd
from repro.parallel.dist_solver import (
    DistributedFactorization,
    distributed_factorize,
    distributed_solve,
)
from repro.parallel.dist_hybrid import (
    DistributedHybrid,
    distributed_hybrid_factorize,
    distributed_hybrid_solve,
)
from repro.parallel.dist_skeletonize import distributed_skeletonize
from repro.parallel.taskdag import (
    TaskDAG,
    build_factor_dag,
    simulate_schedule,
)

__all__ = [
    "Communicator",
    "CommStats",
    "World",
    "run_spmd",
    "DistributedFactorization",
    "distributed_factorize",
    "distributed_solve",
    "DistributedHybrid",
    "distributed_hybrid_factorize",
    "distributed_hybrid_solve",
    "distributed_skeletonize",
    "TaskDAG",
    "build_factor_dag",
    "simulate_schedule",
]
