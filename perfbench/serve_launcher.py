"""Start a `repro serve` daemon holding one resident model, for serve_wire.

Builds the model from the points the benchmark generated (``--points``,
a ``.npy`` file) and the workload's parameters (``--params``, JSON),
registers it, and runs the daemon until a ``shutdown`` request.  With
``--trace 1`` the benchmark's span wrappers are installed before the
model is built and the spans are written to ``--spans-out`` at exit.

    python3 perfbench/serve_launcher.py --points X.npy --params '{...}' \\
        --trace 0 --spans-out spans.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", required=True)
    parser.add_argument("--params", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np

    from perfbench.tracing import SpanRecorder
    from perfbench.workloads import make_solver
    from repro.serve import ModelRegistry, ServeConfig, SolverService, run_daemon

    params = json.loads(args.params)
    rec = SpanRecorder(f"serve_wire-daemon-{os.getpid()}")
    if args.trace:
        rec.install()
    try:
        solver = make_solver(params)
        solver.fit(np.load(args.points))
        solver.factorize(params["lam"])
        service = SolverService(ServeConfig(), registry=ModelRegistry())
        service.registry.register(solver)
        run_daemon(service)
    finally:
        if args.trace:
            rec.uninstall()
            rec.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
