"""Serve-daemon smoke test (CI: the ``serve-smoke`` job).

End-to-end through the real CLI entry point: a checkpoint is written,
``python -m repro serve --warm`` boots the daemon on an ephemeral
port, and then

1. concurrent clients (each with its own TCP connection) issue
   single-RHS solves that must land in a shared coalesced batch and
   match a local serial solve to 1e-12;
2. the health endpoint must report ``repro.serve/v1`` with coalesced
   batches > 0 and a valid ``repro.telemetry/v1`` blob per resident;
3. shutdown over the wire must exit the daemon cleanly (code 0) and
   leave the ``--health-out`` blob behind, still reporting coalesced
   batches > 0.

Run: ``PYTHONPATH=src python scripts/serve_smoke.py``
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import threading

import numpy as np

N = 768
LAM = 1.0
CLIENTS = 6


def build_checkpoint(ckdir: str):
    from repro.config import SkeletonConfig, TreeConfig
    from repro.core import FastKernelSolver
    from repro.kernels import GaussianKernel

    gen = np.random.default_rng(3)
    X = gen.standard_normal((N, 3))
    solver = FastKernelSolver(
        GaussianKernel(bandwidth=1.0),
        tree_config=TreeConfig(leaf_size=64, seed=0),
        skeleton_config=SkeletonConfig(
            tau=1e-6, max_rank=48, num_samples=96, num_neighbors=0, seed=1
        ),
    )
    solver.fit(X)
    solver.factorize(LAM)
    solver.save_checkpoint(ckdir)
    return solver


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    ckdir = os.path.join(tmp, "ckpt")
    health_out = os.path.join(tmp, "health.json")
    solver = build_checkpoint(ckdir)
    gen = np.random.default_rng(5)
    rhs = [gen.standard_normal(N) for _ in range(CLIENTS)]
    refs = [solver.solve(u) for u in rhs]

    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--warm", ckdir, "--lam", str(LAM),
            "--port", "0", "--window-ms", "50",
            "--max-batch", str(CLIENTS),
            "--health-out", health_out,
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = None
        for line in proc.stdout:
            print("daemon:", line, end="")
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port, "daemon never announced its port"

        from repro.serve import ServeClient

        results = [None] * CLIENTS
        errors: list[Exception] = []
        barrier = threading.Barrier(CLIENTS)

        def client(i: int) -> None:
            try:
                with ServeClient(port=port) as c:
                    barrier.wait()
                    results[i] = c.solve(rhs[i], info=True)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        for got, ref in zip(results, refs):
            scale = float(np.max(np.abs(ref)))
            err = float(np.max(np.abs(got["w"] - ref))) / scale
            assert err <= 1e-12, f"parity {err:.2e} > 1e-12"
            assert got["residual"] < 1e-6
        batch_sizes = sorted(r["batch_size"] for r in results)
        print("parity OK; batch sizes:", batch_sizes)

        with ServeClient(port=port) as c:
            health = c.health()
            assert health["schema"] == "repro.serve/v1", health["schema"]
            coalesced = health["coalescer"]["coalesced_batches"]
            assert coalesced > 0, "no requests were coalesced"
            for fp, entry in health["models"].items():
                blob = entry["telemetry"]
                assert blob["schema"] == "repro.telemetry/v1", (fp, blob)
            print(f"health OK: {coalesced} coalesced batch(es), "
                  f"{health['registry']['residents']} resident(s)")
            c.shutdown()

        code = proc.wait(timeout=30)
        assert code == 0, f"daemon exited with {code}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    with open(health_out) as f:
        artifact = json.load(f)
    assert artifact["schema"] == "repro.serve/v1"
    assert artifact["coalescer"]["coalesced_batches"] > 0
    print(f"shutdown clean; health artifact at {health_out}")
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
