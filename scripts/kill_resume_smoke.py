"""Kill-and-resume smoke test (CI: the ``kill-resume`` job).

A child process factorizes with checkpointing enabled and SIGTERMs
itself right after the first completed level hits disk — the sharpest
version of "the batch scheduler killed the job mid-factorization".
The parent then resumes from the same directory and checks:

1. the resumed solution matches an uninterrupted run to 1e-12;
2. only post-checkpoint levels are recomputed: the resume charges no
   leaf LU flops (``factor_leaf_lu``, whatever code factors a leaf) —
   the leaf level is exactly what the child managed to save.

The parent's finished factorization writes the ``state`` payload, so a
third process, a fresh interpreter, then runs
``FastKernelSolver.resume(dir)`` and solves; it must spend no flops
under any ``factor_*`` label, and its solution must equal the parent's
bitwise (compared through an ``.npy`` file in the checkpoint's temp
directory) — a difference that only shows in a new process escapes
in-process tests.

Run: ``PYTHONPATH=src python scripts/kill_resume_smoke.py``
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile

import numpy as np

N = 1024
LAM = 0.5
SEED = 11


def make_solver(checkpoint_dir=None):
    from repro.config import ResilienceConfig, SkeletonConfig, SolverConfig, TreeConfig
    from repro.core import FastKernelSolver
    from repro.kernels import GaussianKernel

    return FastKernelSolver(
        GaussianKernel(bandwidth=2.0),
        tree_config=TreeConfig(leaf_size=64, seed=0),
        skeleton_config=SkeletonConfig(
            tau=1e-8, max_rank=48, num_samples=96, num_neighbors=4, seed=1
        ),
        solver_config=SolverConfig(
            resilience=ResilienceConfig(checkpoint_dir=checkpoint_dir)
        ),
    )


def problem():
    gen = np.random.default_rng(SEED)
    return gen.standard_normal((N, 4)), gen.standard_normal(N)


def child(ckdir: str) -> None:
    """Factorize with checkpoints; die the moment one level is on disk."""
    from repro.resilience.checkpoint import Checkpoint

    original = Checkpoint.save_level

    def save_then_die(self, level, payload, **kwargs):
        original(self, level, payload, **kwargs)
        print(f"child: level {level} checkpointed, sending SIGTERM", flush=True)
        os.kill(os.getpid(), signal.SIGTERM)

    Checkpoint.save_level = save_then_die
    X, _ = problem()
    solver = make_solver(ckdir).fit(X)
    solver.factorize(LAM)
    print("child: factorization finished without dying?!", flush=True)
    sys.exit(3)  # the kill must have happened


def fresh(ckdir: str, out: str) -> None:
    """Resume the finished checkpoint in a new process; save the solution."""
    from repro.core import FastKernelSolver
    from repro.util.flops import FlopCounter

    _, u = problem()
    with FlopCounter() as counter:
        solver = FastKernelSolver.resume(ckdir)
        w = solver.solve(u)
    factor = {k: v for k, v in counter.by_label.items() if k.startswith("factor_")}
    if factor:
        print(f"fresh: resume refactored: {factor}", flush=True)
        sys.exit(4)
    np.save(out, w)
    print("fresh: resumed and solved with no factorization flops", flush=True)


def parent() -> int:
    X, u = problem()

    # uninterrupted reference run, no checkpointing
    baseline = make_solver().fit(X)
    baseline.factorize(LAM)
    w_base = baseline.solve(u)

    with tempfile.TemporaryDirectory(prefix="kill_resume_") as ckdir:
        env = dict(os.environ)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", ckdir],
            env=env, capture_output=True, text=True, timeout=300,
        )
        print(proc.stdout, end="")
        if proc.returncode == 0 or proc.returncode == 3:
            print(f"FAIL: child survived (rc={proc.returncode})", file=sys.stderr)
            print(proc.stderr, file=sys.stderr)
            return 1
        print(f"child terminated as planned (rc={proc.returncode})")

        from repro.resilience.checkpoint import Checkpoint

        cp = Checkpoint(ckdir, mode="inspect")
        saved = sorted(n for n in cp.names() if n.startswith("level_"))
        if len(saved) != 1:
            print(f"FAIL: expected exactly one saved level, got {saved}",
                  file=sys.stderr)
            return 1
        print(f"checkpoint holds {saved} + {sorted(set(cp.names()) - set(saved))}")

        # resume: fresh solver, same directory; the saved (deepest =
        # leaf) level must be restored, not recomputed.
        from repro.util.flops import FlopCounter

        resumed = make_solver(ckdir).fit(X)
        with FlopCounter() as counter:
            resumed.factorize(LAM)
        leaf_lu_flops = counter.by_label.get("factor_leaf_lu", 0)
        w_resumed = resumed.solve(u)

        # a fresh interpreter resumes what the parent's factorize left.
        out = os.path.join(ckdir, "fresh_solution.npy")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--fresh", ckdir, out],
            env=env, capture_output=True, text=True, timeout=300,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"FAIL: fresh resume failed (rc={proc.returncode})", file=sys.stderr)
            print(proc.stderr, file=sys.stderr)
            return 1
        if np.load(out).tobytes() != w_resumed.tobytes():
            print("FAIL: fresh-process resume differs from the parent's solution",
                  file=sys.stderr)
            return 1

    diff = float(np.max(np.abs(w_resumed - w_base)))
    denom = float(np.max(np.abs(w_base)))
    print(f"max |resumed - uninterrupted| = {diff:.3e} (scale {denom:.3e})")
    if diff > 1e-12 * max(denom, 1.0):
        print("FAIL: resumed solution deviates beyond 1e-12", file=sys.stderr)
        return 1
    if leaf_lu_flops != 0:
        print(f"FAIL: resume spent {leaf_lu_flops} flops re-factoring "
              "leaves that were already checkpointed", file=sys.stderr)
        return 1
    print("kill-and-resume smoke OK: identical solution, "
          "checkpointed level not recomputed, fresh-process resume bitwise")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        child(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "--fresh":
        fresh(sys.argv[2], sys.argv[3])
    else:
        sys.exit(parent())
