"""Solver-as-a-service: resident factorizations, coalesced solves.

The paper's factorization is expensive (O(N log N) with heavy
constants) precisely so that solves become cheap (O(N log N) with tiny
constants); the serving layer completes that bargain by keeping
factorized solvers *resident* and amortizing them across requests:

* :class:`ModelRegistry` — LRU registry of factorized
  :class:`~repro.core.FastKernelSolver` instances keyed by their
  ``repro.checkpoint/v1`` config fingerprint, warm-loadable from
  checkpoint directories, bounded by a BlockCache-style word budget.
* :class:`RequestCoalescer` — stacks concurrent single-RHS requests
  into one batched ``gmres_batched`` solve per window and scatters the
  columns back (``benchmarks/test_ext_serving.py`` asserts >= 2x over
  per-request solves).
* :class:`SolverService` — admission control (``max_pending``,
  per-request :class:`~repro.resilience.Deadline`/work budgets from
  :class:`ServeConfig`), the solve path, and the ``repro.serve/v1``
  health blob.
* :class:`ServeDaemon` / :func:`run_daemon` / :class:`ServeClient` —
  the ``repro serve`` TCP front end (newline-delimited JSON) and its
  minimal client.

See docs/SERVING.md.
"""

from repro.serve.client import RemoteServeError, RetryConfig, ServeClient
from repro.serve.coalescer import RequestCoalescer
from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeDaemon, error_payload, run_daemon
from repro.serve.registry import ModelRegistry, ResidentModel
from repro.serve.service import SERVE_SCHEMA, ServeResult, SolverService

__all__ = [
    "SERVE_SCHEMA",
    "ModelRegistry",
    "RemoteServeError",
    "RetryConfig",
    "RequestCoalescer",
    "ResidentModel",
    "ServeClient",
    "ServeConfig",
    "ServeDaemon",
    "ServeResult",
    "SolverService",
    "error_payload",
    "run_daemon",
]
