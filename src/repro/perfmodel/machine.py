"""Machine node models for Haswell and Knights Landing.

Peak numbers follow the paper's section IV footnote:

* Haswell node: 2 x 12 cores x 2.6 GHz x 16 DP flops/cycle = 998 GFLOPS,
  MKL GEMM reaches 87% of peak.
* KNL node: 68 cores x 1.4 GHz x 32 DP flops/cycle = 3,046 GFLOPS,
  MKL GEMM reaches 69% of peak (clock throttling under full FMA issue).

Bandwidths and the transcendental-function rates are representative
published STREAM / VML figures for the two parts; they control the
memory-bound regimes of the summation model.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

__all__ = [
    "MachineSpec",
    "HASWELL_NODE",
    "KNL_NODE",
    "PYTHON_NODE",
    "probe_machine",
    "probed_machine",
    "probing_enabled",
]


@dataclass(frozen=True)
class MachineSpec:
    """Roofline parameters of one compute node.

    Attributes
    ----------
    name:
        Human-readable node name.
    peak_gflops:
        Theoretical double-precision peak of the node.
    gemm_efficiency:
        Fraction of peak a large vendor GEMM achieves.
    stream_bw_gbs:
        Sustainable streaming bandwidth (GB/s) of the memory feeding
        large working sets (DDR4 for both nodes: on KNL, Table IV shows
        the big factors do not fit MCDRAM).
    exp_gelems:
        Vectorized-exp throughput in Gelem/s (VML / SVML class).
    fused_efficiency:
        Fraction of peak the fused GSKS micro-kernel achieves on its
        semi-ring update (lower than GEMM: the kernel evaluation and
        reduction share the same registers).
    dispatch_us:
        Fixed per-call overhead (microseconds) of one small numpy/LAPACK
        dispatch from Python — the cost the level-batched paths amortize
        away.  Irrelevant for the paper's nodes (their inner loops are
        C); measured by :func:`probe_machine` for this host.
    """

    name: str
    peak_gflops: float
    gemm_efficiency: float
    stream_bw_gbs: float
    exp_gelems: float
    fused_efficiency: float
    dispatch_us: float = 15.0

    @property
    def gemm_gflops(self) -> float:
        return self.peak_gflops * self.gemm_efficiency

    @property
    def fused_gflops(self) -> float:
        return self.peak_gflops * self.fused_efficiency


#: Lonestar5 node: 2 x Xeon E5-2690 v3 (section IV).
HASWELL_NODE = MachineSpec(
    name="Haswell (2 x E5-2690 v3, 24 cores)",
    peak_gflops=998.0,
    gemm_efficiency=0.87,
    stream_bw_gbs=100.0,
    exp_gelems=4.0,
    fused_efficiency=0.70,
)

#: The execution environment of this reproduction itself: one numpy
#: process (BLAS may use a few threads, elementwise transcendentals do
#: not).  Unlike the paper's nodes, the "fused" path here is tiled
#: numpy, so recomputing a kernel block is exp-throughput bound and far
#: slower than streaming a stored copy — which is why the
#: :class:`~repro.perf.BlockCache` stores every block its budget admits.
PYTHON_NODE = MachineSpec(
    name="single numpy process (reproduction host)",
    peak_gflops=50.0,
    gemm_efficiency=0.80,
    stream_bw_gbs=16.0,
    exp_gelems=0.25,
    fused_efficiency=0.10,
)

#: Stampede KNL node: Xeon Phi 7250, cache-quadrant mode (section IV).
KNL_NODE = MachineSpec(
    name="KNL (Xeon Phi 7250, 68 cores, cache-quadrant)",
    peak_gflops=3046.0,
    gemm_efficiency=0.69,
    stream_bw_gbs=85.0,
    exp_gelems=6.0,
    fused_efficiency=0.50,
)


# ---------------------------------------------------------------------------
# runtime probe: measured MachineSpec for the host actually running this
# process.  PYTHON_NODE above is a fixed guess; the probe replaces it with
# ~20 ms of micro-measurement so the GSKS tile autotuner and the
# level-batch threshold see the real machine.  Results are quantized to
# two significant figures (damps run-to-run jitter) and cached for the
# life of the process.
# ---------------------------------------------------------------------------

_PROBE_LOCK = threading.Lock()
_PROBED: MachineSpec | None = None


def probing_enabled() -> bool:
    """Whether the runtime probe is on (``REPRO_MACHINE_PROBE=0`` kills it)."""
    return os.environ.get("REPRO_MACHINE_PROBE", "1").strip().lower() not in (
        "0",
        "false",
        "off",
    )


def _best_seconds(fn, reps: int) -> float:
    """Minimum wall time of ``fn()`` over ``reps`` runs (one warmup)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


def _round2(x: float) -> float:
    """Quantize to two significant figures (probe noise damping)."""
    return float(f"{x:.2g}")


def probe_machine() -> MachineSpec:
    """Measure a :class:`MachineSpec` for this host (~20 ms, uncached).

    Four micro-benchmarks: a square DGEMM (sustained GEMM rate), a large
    copy (stream bandwidth), a vectorized exp (transcendental rate), and
    a tiny LAPACK factor in a loop (per-call dispatch overhead).  Sizes
    are chosen so the whole probe stays well under the cost of a single
    small factorization.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(12345)

    n = 192
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    t_gemm = _best_seconds(lambda: a @ b, reps=3)
    gemm_gflops = 2.0 * n**3 / t_gemm / 1e9

    src = rng.standard_normal(1 << 20)
    dst = np.empty_like(src)
    t_copy = _best_seconds(lambda: np.copyto(dst, src), reps=3)
    stream_bw_gbs = 2.0 * src.nbytes / t_copy / 1e9

    xs = rng.standard_normal(1 << 17)
    out = np.empty_like(xs)
    t_exp = _best_seconds(lambda: np.exp(xs, out=out), reps=3)
    exp_gelems = xs.size / t_exp / 1e9

    tiny = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)

    def _dispatch_loop() -> None:
        for _ in range(32):
            scipy.linalg.lu_factor(tiny, check_finite=False)

    dispatch_us = _best_seconds(_dispatch_loop, reps=2) / 32 * 1e6

    # gemm_efficiency is pinned and peak derived from the measured rate, so
    # ``gemm_gflops`` reproduces the measurement; the fused path here is
    # tiled numpy (exp-bound), same as PYTHON_NODE.
    return MachineSpec(
        name="probed host (runtime micro-benchmark)",
        peak_gflops=_round2(gemm_gflops / 0.80),
        gemm_efficiency=0.80,
        stream_bw_gbs=_round2(stream_bw_gbs),
        exp_gelems=_round2(exp_gelems),
        fused_efficiency=0.10,
        dispatch_us=_round2(max(dispatch_us, 1.0)),
    )


def probed_machine() -> MachineSpec:
    """The cached probed spec, or :data:`PYTHON_NODE` when probing is off.

    This is the default machine for everything host-dependent: the
    :class:`~repro.perf.BlockCache` policy, the GSKS tile autotuner, and
    the level-batching threshold.  One probe per process; worker
    processes that receive a pickled spec (e.g. inside a BlockCache)
    keep the sender's numbers instead of re-probing.
    """
    global _PROBED
    if not probing_enabled():
        return PYTHON_NODE
    if _PROBED is None:
        with _PROBE_LOCK:
            if _PROBED is None:
                _PROBED = probe_machine()
    return _PROBED
