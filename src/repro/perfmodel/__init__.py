"""Performance models for the paper's hardware (section IV).

The paper reports GFLOPS and wall-clock on Haswell (998 GFLOPS/node)
and Knights Landing (3,046 GFLOPS/node) nodes.  This reproduction runs
pure numpy on one core, so absolute times are meaningless; instead the
library *counts* floating-point and memory operations and these models
convert counts into modeled node seconds via a roofline (compute rate
vs. memory bandwidth).  The benchmarks report both the measured
laptop-scale wall-clock and the modeled node numbers — the paper
comparisons (GSKS vs MKL+VML, GEMV vs GEMM vs GSKS, scaling
efficiency) are all *ratios*, which the counters capture exactly.
"""

from repro.perfmodel.machine import (
    MachineSpec,
    HASWELL_NODE,
    KNL_NODE,
    PYTHON_NODE,
    probe_machine,
    probed_machine,
)
from repro.perfmodel.summation_model import (
    SummationTimings,
    model_reference_summation,
    model_gsks_summation,
)
from repro.perfmodel.scaling_model import ScalingModel, ScalingPoint

__all__ = [
    "MachineSpec",
    "HASWELL_NODE",
    "KNL_NODE",
    "PYTHON_NODE",
    "probe_machine",
    "probed_machine",
    "SummationTimings",
    "model_reference_summation",
    "model_gsks_summation",
    "ScalingModel",
    "ScalingPoint",
]
