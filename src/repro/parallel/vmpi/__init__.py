"""Virtual MPI: a deterministic message-passing runtime.

Ranks execute the same SPMD function on one of two backends — threads
over a shared logged-mailbox fabric (default, debuggable), or spawned
worker processes over TCP with shared-memory payload transport,
heartbeat failure detection and elastic membership
(``run_spmd(..., backend="socket")``, true multi-core; see
docs/PARALLELISM.md).  A :class:`World` keeps its ranks, and each
rank's resident store, across programs.  The fabric routes tagged messages between
(communicator, source, dest) mailboxes.
Collectives (bcast/reduce/allreduce/gather/allgather/barrier) are
implemented as binomial trees over point-to-point messages, so the
fabric's message and byte counters reflect the O(log p) per-collective
cost structure of a real MPI implementation — which is what lets the
test suite verify the paper's communication-complexity claims.

The runtime is chaos-capable: a seeded
:class:`~repro.parallel.vmpi.faults.FaultPlan` injects deterministic
message drops, corruptions, delays, and rank crashes; receives
retransmit with exponential backoff, and crashed ranks are respawned
against the fabric's message log (see :mod:`repro.parallel.vmpi.faults`
and docs/ROBUSTNESS.md).
"""

from repro.parallel.vmpi.fabric import Fabric, CommStats
from repro.parallel.vmpi.communicator import Communicator
from repro.parallel.vmpi.faults import FaultPlan, RetryPolicy, plan_from_env
from repro.parallel.vmpi.membership import (
    FailureDetector,
    HeartbeatConfig,
    Membership,
)
from repro.parallel.vmpi.runtime import BACKENDS, World, resolve_backend, run_spmd

__all__ = [
    "Fabric",
    "CommStats",
    "Communicator",
    "FaultPlan",
    "RetryPolicy",
    "plan_from_env",
    "World",
    "run_spmd",
    "resolve_backend",
    "BACKENDS",
    "HeartbeatConfig",
    "FailureDetector",
    "Membership",
]
