"""Spans recorded from outside the program, around each layer's callables.

The traced run patches a wrapper onto every callable in ``TARGETS``,
where its callers look it up: a name bound by ``from ... import`` is
patched in the importing module (``gmres_batched`` in
``repro.solvers.factorization``, ``run_spmd`` in
``repro.parallel.dist_solver``), a method on its class.  Each wrapper
records one span (name, start, end, parent, thread) in memory; a few
also open a ``repro.util.flops.FlopCounter`` so the span carries the
flops, memory words and kernel evaluations done inside it.  Spans are
written out when the run ends.

Self time of a span is its duration minus the durations of its child
spans (children on one thread nest, so they never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time

import numpy as np

from repro.perf import default_cache
from repro.util.flops import FlopCounter

#: (module, attribute, span name, count work).  The layer is the span
#: name's first component.
TARGETS = (
    ("repro.tree.balltree", "BallTree.__init__", "tree.build", False),
    ("repro.skeleton.skeletonize", "approximate_knn", "sampling.knn", False),
    ("repro.sampling.importance", "RowSampler.sample", "sampling.rows", False),
    ("repro.hmatrix.hmatrix", "skeletonize", "skeleton.skeletonize", True),
    ("repro.skeleton.skeletonize", "interpolative_decomposition", "skeleton.id", False),
    ("repro.kernels.summation", "KernelSummation.matvec", "kernels.summation", False),
    ("repro.core.solver", "factorize", "solvers.factorize", True),
    ("repro.solvers.factorization", "factorize", "solvers.factorize", True),
    ("repro.solvers.factorization", "HierarchicalFactorization.solve", "solvers.solve", True),
    ("repro.solvers.factorization", "HierarchicalFactorization.solve_subtree",
     "solvers.solve_subtree", False),
    ("repro.solvers.factorization", "HierarchicalFactorization.reduced_matvec",
     "solvers.reduced_matvec", False),
    ("repro.solvers.factorization", "gmres_batched", "solvers.gmres", False),
    ("repro.solvers.factorization", "gmres", "solvers.gmres", False),
    ("repro.util.lapack", "lu_solve", "solvers.lu_solve", False),
    ("repro.util.lapack", "lu_solve_batched", "solvers.lu_solve", False),
    ("repro.core.solver", "FastKernelSolver.fit", "core.fit", False),
    ("repro.core.solver", "FastKernelSolver.factorize", "core.factorize", False),
    ("repro.core.solver", "FastKernelSolver.solve", "core.solve", False),
    ("repro.core.update", "apply_update", "core.update", False),
    ("repro.parallel", "distributed_factorize", "parallel.factorize", False),
    ("repro.parallel", "distributed_solve", "parallel.solve", False),
    ("repro.parallel.dist_solver", "run_spmd", "parallel.world", False),
    ("repro.serve.service", "SolverService.solve", "serve.request", False),
    ("repro.serve.coalescer", "RequestCoalescer.submit", "serve.submit", False),
    ("repro.serve.registry", "ModelRegistry.get", "serve.registry", False),
)


class SpanRecorder:
    """In-memory span store; ``install`` patches the wrappers in."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.threads: list[int] = []
        #: span index -> (flops, mops, kernel_evals) for counting spans.
        self.work: dict[int, tuple[int, int, int]] = {}
        #: default block cache's traffic inside the benchmark's counted spans.
        self.cache = {"hits": 0, "misses": 0, "peak_words": 0}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> tuple[int, int]:
        parent = getattr(self._local, "current", -1)
        with self._lock:
            idx = len(self.names)
            self.names.append(name)
            self.starts.append(time.perf_counter())
            self.ends.append(float("nan"))
            self.parents.append(parent)
            self.threads.append(threading.get_ident())
        self._local.current = idx
        return idx, parent

    def _close(self, idx: int, parent: int, counter: FlopCounter | None) -> None:
        self.ends[idx] = time.perf_counter()
        self._local.current = parent
        if counter is not None:
            self.work[idx] = (counter.flops, counter.mops, counter.kernel_evals)

    @contextlib.contextmanager
    def span(self, name: str, *, count: bool = False):
        """Record a span around a block of the benchmark's own code.

        With ``count`` the span carries its flops, words and kernel
        evaluations, and the default block cache's hits, misses and peak
        resident words inside it go into :attr:`cache`.  The cache's
        counters are reset when the span opens, so counted spans must
        not nest.
        """
        counter = FlopCounter() if count else None
        if count:
            default_cache().reset_stats()
        idx, parent = self._open(name)
        try:
            if counter is None:
                yield
            else:
                with counter:
                    yield
        finally:
            self._close(idx, parent, counter)
            if count:
                stats = default_cache().stats()
                self.cache["hits"] += stats.hits
                self.cache["misses"] += stats.misses
                self.cache["peak_words"] = max(self.cache["peak_words"], stats.peak_words)

    def _wrap(self, fn, name: str, count: bool):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counter = FlopCounter() if count else None
            idx, parent = rec._open(name)
            try:
                if counter is None:
                    return fn(*args, **kwargs)
                with counter:
                    return fn(*args, **kwargs)
            finally:
                rec._close(idx, parent, counter)

        return traced

    # -- patching ------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, count in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            setattr(owner, leaf, self._wrap(original, name, count))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    # -- analysis ------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """Closed spans as arrays: name, duration, self time, work."""
        n = len(self.names)
        work = np.zeros((n, 3))
        for idx, triple in self.work.items():
            work[idx] = triple
        return _arrays(self.names[:n], self.starts[:n], self.ends[:n],
                       self.parents[:n], work)

    def dump(self, path) -> None:
        """Write every span (the run's trace) as one JSON document."""
        n = len(self.names)
        t0 = min(self.starts) if n else 0.0
        doc = {
            "run_id": self.run_id,
            "spans": [
                {
                    "name": self.names[i],
                    "start_s": self.starts[i] - t0,
                    "end_s": self.ends[i] - t0,
                    "parent": self.parents[i],
                    "thread": self.threads[i],
                    **(
                        dict(zip(("flops", "mops", "kernel_evals"), self.work[i]))
                        if i in self.work
                        else {}
                    ),
                }
                for i in range(n)
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def _arrays(names, starts, ends, parents, work) -> dict[str, np.ndarray]:
    """Span arrays; ``measured`` marks spans inside a ``bench.*`` span.

    The benchmark opens a ``bench.*`` span around each operation it
    times, so checks and reference solves done outside them are not
    charged to any layer.
    """
    measured = np.zeros(len(names), dtype=bool)
    for i, (name, parent) in enumerate(zip(names, parents)):
        measured[i] = name.startswith("bench.") or (parent >= 0 and measured[parent])
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    dur = np.where(np.isfinite(ends), ends - starts, 0.0)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    child = np.zeros(dur.size)
    np.add.at(child, parents[has_parent], dur[has_parent])
    names = np.asarray(names, dtype=object)
    parent_names = np.where(has_parent, names[np.where(has_parent, parents, 0)], "")
    return {
        "name": names,
        "parent_name": parent_names,
        "dur": dur,
        "self": dur - child,
        "flops": work[:, 0],
        "mops": work[:, 1],
        "kernel_evals": work[:, 2],
        "measured": measured,
    }


def load_arrays(path) -> dict[str, np.ndarray]:
    """Span arrays of a trace written by :meth:`SpanRecorder.dump`."""
    with open(path) as f:
        spans = json.load(f)["spans"]
    work = np.array([[s.get(k, 0) for k in ("flops", "mops", "kernel_evals")] for s in spans],
                    dtype=np.float64).reshape(-1, 3)
    return _arrays([s["name"] for s in spans], [s["start_s"] for s in spans],
                   [s["end_s"] for s in spans], [s["parent"] for s in spans], work)


def summarize(spans: dict[str, np.ndarray], name: str, *, outermost: bool = False):
    """Calls, total duration, self time and counted work of one span name.

    ``outermost`` keeps only spans whose parent has another name, so a
    recursive callable's time is not counted once per nesting level.
    """
    every = (spans["name"] == name) & spans["measured"]
    mask = every & (spans["parent_name"] != name) if outermost else every
    return {
        "calls": int(np.count_nonzero(every)),
        "dur": float(spans["dur"][mask].sum()),
        "self": float(spans["self"][every].sum()),
        "flops": float(spans["flops"][mask].sum()),
        "mops": float(spans["mops"][mask].sum()),
        "kernel_evals": float(spans["kernel_evals"][mask].sum()),
    }


def layer_self(spans: dict[str, np.ndarray], layer: str) -> float:
    """Total self time of every span of one layer."""
    mask = np.array([n.split(".", 1)[0] == layer for n in spans["name"]], dtype=bool)
    return float(spans["self"][mask & spans["measured"]].sum()) if mask.size else 0.0
