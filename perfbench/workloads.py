"""The benchmark's workloads, driven through the public API and the wire.

Each workload runs one *pass*: it builds its inputs from the seed, sets
up, solves until its solve time reaches the budget, and checks every
answer.
A pass returns a :class:`Pass`; ``run.py`` turns passes into the printed
metrics.  With a :class:`~perfbench.tracing.SpanRecorder`, the pass also
records one ``bench.*`` span (with flop/word/kernel-evaluation counts)
around each operation it times.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import resource
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import checks

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"


@dataclass
class Pass:
    """One pass of a workload: end-to-end values, counts and layer facts."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: per-layer inputs that do not come from spans.
    facts: dict = field(default_factory=dict)

    def fail(self, n: int, what: str) -> None:
        if n:
            self.failed += int(n)
            self.problems.append(f"{n} x {what}")


@contextlib.contextmanager
def _timed(rec, name: str, times: list):
    """Append the block's wall time to ``times``; with a recorder, also a counted span."""
    span = rec.span(name, count=True) if rec else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span:
        yield
    times.append(time.perf_counter() - t0)


def peak_rss_mb() -> float:
    """Peak resident set of this process.

    Workloads read it right after one early solve (on ``direct_update``
    the first after its updates): later solves add only allocator growth
    whose size depends on how many solves fit in the run, i.e. on the
    host's speed.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_solver(p: dict):
    """The workload's FastKernelSolver from its parameters."""
    from repro import FastKernelSolver, kernel_by_name
    from repro.config import GMRESConfig, SkeletonConfig, SolverConfig, TreeConfig

    gmres = GMRESConfig(**p["gmres"]) if "gmres" in p else GMRESConfig()
    return FastKernelSolver(
        kernel_by_name(p["kernel"], bandwidth=p["bandwidth"]),
        tree_config=TreeConfig(leaf_size=p["leaf_size"], seed=0),
        skeleton_config=SkeletonConfig(
            **p["skeleton"], level_restriction=p.get("level", 0), seed=1
        ),
        solver_config=SolverConfig(method=p["method"], gmres=gmres),
    )


def points(p: dict) -> np.ndarray:
    """The workload's point cloud, drawn from its fixed ``data_seed``.

    The cloud is fixed so that run-to-run spread measures the program,
    not the data (GMRES iteration counts and adaptive ranks move with the
    cloud); the run's ``--seed`` drives everything the program is asked
    to do with it: right-hand sides, inserted points, request arrivals
    and the probe vectors of the accuracy check.
    """
    return np.random.default_rng(p["data_seed"]).standard_normal((p["n"], p["d"]))


def _exact_rows(kernel, X: np.ndarray):
    """``(K v)_S`` evaluated from the kernel, a few rows at a time."""

    def rows_times(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty((rows.size,) + v.shape[1:])
        for lo in range(0, rows.size, 32):
            sel = rows[lo : lo + 32]
            out[lo : lo + 32] = kernel(X[sel], X) @ v
        return out

    return rows_times


def _approx_check(res: Pass, p: dict, rng, matvec, kernel, X) -> None:
    """eps2 on a fixed row sample (from ``data_seed``) with seeded probe vectors."""
    rows = np.random.default_rng(p["data_seed"]).choice(
        X.shape[0], size=min(p["eps2_rows"], X.shape[0]), replace=False)
    v = rng.standard_normal((X.shape[0], p["eps2_vectors"]))
    eps2 = checks.approx_error(matvec, _exact_rows(kernel, X), rows, v)
    res.attempted += 1
    res.fail(checks.approx_failures(eps2, p["eps2_bound"]), f"eps2 {eps2:.3e} above {p['eps2_bound']}")
    res.metrics["approx_digits"] = checks.digits(eps2)
    res.facts["eps2"] = eps2


def _setups(res: Pass, rec, p: dict, X: np.ndarray, setups: int):
    """Fit + factorize ``setups`` times from an empty block cache; keep the last."""
    from repro.perf import configure_default_cache

    times: list[float] = []
    solver = None
    for _ in range(setups):
        solver = None  # release the previous model before building the next
        configure_default_cache()
        solver = make_solver(p)
        with _timed(rec, "bench.setup", times):
            solver.fit(X)
            solver.factorize(p["lam"])
        res.attempted += 1
    res.metrics["setup_s"] = checks.median(times)
    res.facts["setup_step_s"] = times
    return solver


def _lam_sweep(solver, rec, lams, times: list) -> list:
    """One timed ``update(lam=)`` per value; ``times`` gets one entry per step."""
    reports = []
    for lam in lams:
        with _timed(rec, "bench.update_lam", times):
            solver.update(lam=lam)
        reports.append(solver.last_update)
    return reports


def sweep_s(step_times: list) -> float:
    """A sweep's time as its median step times the number of steps.

    One step slowed by the host moves this far less than the sum.
    """
    return checks.median(step_times) * len(step_times)


def _record_model(res: Pass, solver, reports) -> None:
    ranks = [sk.rank for sk in solver.hmatrix.skeletons.skeletons.values()]
    res.facts.update(
        rank_sum=int(sum(ranks)),
        updates=[(r.nodes_refactored, r.nodes_total, r.full_rebuild) for r in reports],
    )


# ----------------------------------------------------------------------
def hybrid_solve(p: dict, seed: int, seconds: float, setups: int, rec=None) -> Pass:
    """k-column panels through the hybrid (reduced-GMRES) solve."""
    from repro.exceptions import ConvergenceWarning

    res = Pass()
    rng = np.random.default_rng(seed)
    X = points(p)
    solver = _setups(res, rec, p, X, setups)

    update_times: list[float] = []
    reports = _lam_sweep(solver, rec, p["lam_sweep"], update_times)
    res.attempted += len(reports)
    res.metrics["update_s"] = sweep_s(update_times)
    res.facts["update_step_s"] = update_times

    fact = solver.factorization
    solve_times: list[float] = []
    residuals, histories = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        # the budget counts solve time only; the checks between solves do not
        while not solve_times or sum(solve_times) < seconds:
            B = rng.standard_normal((p["n"], p["k"]))
            before = len(fact.reduced_histories)
            with _timed(rec, "bench.solve", solve_times):
                W = solver.solve(B)
            if len(solve_times) == 1:
                res.metrics["peak_rss_mb"] = peak_rss_mb()
            histories.extend(fact.reduced_histories[before:])
            residuals.extend(
                checks.column_residuals(
                    lambda V: solver.regularized_matvec(fact.lam, V), B, W
                )
            )
            res.attempted += p["k"]
    unconverged_warnings = sum(
        1 for w in caught if "batched GMRES stopped" in str(w.message)
    )
    res.fail(checks.gmres_failures(histories, p["gmres"]["tol"], unconverged_warnings),
             "unconverged GMRES column or warning")
    res.fail(checks.residual_failures(residuals, p["solve_digits_floor"]),
             f"residual above 1e-{p['solve_digits_floor']}")
    res.metrics["solve_s"] = checks.median(solve_times)
    res.facts["solve_times_s"] = solve_times
    res.metrics["solve_digits"] = checks.digits(max(residuals))
    _approx_check(res, p, rng, solver.matvec, solver.kernel, X)
    _record_model(res, solver, reports)
    res.facts.update(
        gmres_iters=int(sum(len(h) - 1 for h in histories)),
        gmres_columns=len(histories),
        gmres_converged=sum(1 for h in histories if len(h) and h[-1] < p["gmres"]["tol"]),
    )
    return res


def direct_update(p: dict, seed: int, seconds: float, setups: int, rec=None) -> Pass:
    """Single-RHS solves around a lambda sweep and a clustered insertion."""
    res = Pass()
    rng = np.random.default_rng(seed)
    X = points(p)
    n_insert = max(1, p["n"] * p["insert_percent"] // 100)
    Xi = X[rng.integers(p["n"])] + p["insert_spread"] * rng.standard_normal((n_insert, p["d"]))
    solver = _setups(res, rec, p, X, setups)

    solve_times: list[float] = []
    residuals: list[float] = []

    def check(us: list, ws: list) -> None:
        """Residuals of a batch of solves, as one panel matvec."""
        residuals.extend(checks.column_residuals(
            lambda V: solver.regularized_matvec(solver.factorization.lam, V),
            np.stack(us, axis=1), np.stack(ws, axis=1)))
        us.clear()
        ws.clear()

    def solve_for(budget: float, *, after_update: bool) -> None:
        first = len(solve_times)  # the budget counts solve time only
        us: list[np.ndarray] = []
        ws: list[np.ndarray] = []
        while len(solve_times) == first or sum(solve_times[first:]) < budget:
            us.append(rng.standard_normal(solver.n_points))
            with _timed(rec, "bench.solve", solve_times):
                ws.append(solver.solve(us[-1]))
            if after_update and len(solve_times) == first + 1:
                res.metrics["peak_rss_mb"] = peak_rss_mb()
            res.attempted += 1
            if len(us) == p["check_batch"]:
                check(us, ws)
        if us:
            check(us, ws)

    solve_for(seconds / 2, after_update=False)
    lam_times: list[float] = []
    insert_times: list[float] = []
    reports = _lam_sweep(solver, rec, p["lam_sweep"], lam_times)
    with _timed(rec, "bench.update_insert", insert_times):
        solver.update(X_insert=Xi)
    reports.append(solver.last_update)
    res.attempted += len(reports)
    res.metrics["update_s"] = sweep_s(lam_times) + insert_times[0]
    res.facts.update(update_step_s=lam_times, insert_s=insert_times[0])
    solve_for(seconds / 2, after_update=True)

    res.fail(checks.residual_failures(residuals, p["solve_digits_floor"]),
             f"residual above 1e-{p['solve_digits_floor']}")
    res.metrics["solve_s"] = checks.median(solve_times)
    res.metrics["solve_digits"] = checks.digits(max(residuals))
    _approx_check(res, p, rng, solver.matvec, solver.kernel, np.concatenate([X, Xi]))
    _record_model(res, solver, reports)
    return res


def dist_socket(p: dict, seed: int, seconds: float, setups: int, rec=None) -> Pass:
    """Distributed factorize/solve on the socket backend against a serial baseline."""
    from repro import kernel_by_name, parallel
    from repro.config import SkeletonConfig, SolverConfig, TreeConfig
    from repro.hmatrix import build_hmatrix
    from repro.perf import configure_default_cache
    from repro.solvers import factorize

    res = Pass()
    rng = np.random.default_rng(seed)
    X = points(p)
    kernel = kernel_by_name(p["kernel"], bandwidth=p["bandwidth"])
    comm = {"messages": 0, "bytes": 0, "retries": 0}

    def tally(stats) -> None:
        comm["messages"] += stats.messages
        comm["bytes"] += stats.bytes
        comm["retries"] += stats.retries

    setup_times: list[float] = []
    factorize_times: list[float] = []
    h = dist = None
    for _ in range(setups):
        h = dist = None
        configure_default_cache()
        with _timed(rec, "bench.setup", setup_times):
            h = build_hmatrix(
                X, kernel,
                tree_config=TreeConfig(leaf_size=p["leaf_size"], seed=0),
                skeleton_config=SkeletonConfig(**p["skeleton"], seed=1),
            )
            t0 = time.perf_counter()
            dist = parallel.distributed_factorize(h, p["lam"], p["ranks"], backend=p["backend"])
            factorize_times.append(time.perf_counter() - t0)
        tally(dist.factor_stats)
        res.attempted += 1
    res.metrics["setup_s"] = checks.median(setup_times)
    res.facts["setup_step_s"] = setup_times

    solve_times: list[float] = []
    serial_solve_times: list[float] = []
    residuals: list[float] = []
    serial = None
    while not solve_times or sum(solve_times) < seconds:  # solve time only
        u = rng.standard_normal(p["n"])
        with _timed(rec, "bench.solve", solve_times):
            w, stats = parallel.distributed_solve(dist, u)
        if serial is None:
            # Read before the serial reference exists and before the
            # refits: each later distributed call raises this process's
            # peak by a varying few MB.  A socket rank's own peak would
            # count in RUSAGE_CHILDREN only once the rank has been reaped.
            res.metrics["peak_rss_mb"] = peak_rss_mb()
            t0 = time.perf_counter()
            serial = factorize(h, p["lam"], SolverConfig(method=p["method"]))
            serial_factorize_s = time.perf_counter() - t0
        tally(stats)
        t0 = time.perf_counter()
        w_ref = serial.solve(u)
        serial_solve_times.append(time.perf_counter() - t0)
        res.fail(checks.mismatch_failures(w, w_ref, p["match_rtol"]),
                 "distributed solution differs from serial")
        residuals.extend(checks.column_residuals(
            lambda V: h.regularized_matvec(p["lam"], V), u, w))
        res.attempted += 1

    # no distributed update(): refit on the same skeletons, ending at lam
    update_times: list[float] = []
    for lam in p["lam_sweep"]:
        with _timed(rec, "bench.update_lam", update_times):
            dist = parallel.distributed_factorize(h, lam, p["ranks"], backend=p["backend"])
        tally(dist.factor_stats)
        res.attempted += 1
    res.metrics["update_s"] = sweep_s(update_times)
    res.facts["update_step_s"] = update_times

    res.fail(checks.residual_failures(residuals, p["solve_digits_floor"]),
             f"residual above 1e-{p['solve_digits_floor']}")
    res.metrics["solve_s"] = checks.median(solve_times)
    res.metrics["solve_digits"] = checks.digits(max(residuals))
    _approx_check(res, p, rng, h.matvec, kernel, h.tree.points)
    serial_s = serial_factorize_s + checks.median(serial_solve_times)
    dist_s = checks.median(factorize_times) + res.metrics["solve_s"]
    res.facts.update(
        rank_sum=int(sum(sk.rank for sk in h.skeletons.skeletons.values())),
        comm=comm,
        efficiency=serial_s / (p["ranks"] * dist_s),
    )
    return res


# ----------------------------------------------------------------------
# serve_wire: a `repro serve` daemon in its own process, open-loop load
# ----------------------------------------------------------------------
@dataclass
class _Request:
    due: float
    line: bytes
    sent: float = float("nan")
    latency: float = float("inf")  # seconds from due to answer; inf = failed
    w: np.ndarray | None = None


class _Connection:
    """One pipelined client connection; answers arrive in request order."""

    def __init__(self, host: str, port: int, drops: list) -> None:
        self.host, self.port, self.drops = host, port, drops
        self.reader = self.writer = self.task = None
        self.pending: list[_Request] = []

    async def ensure(self) -> None:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port, limit=1 << 26
            )
            self.task = asyncio.ensure_future(self._read(self.reader, self.pending))

    async def send(self, req: _Request) -> None:
        await self.ensure()
        req.sent = time.perf_counter()
        self.pending.append(req)
        self.writer.write(req.line)
        try:
            await self.writer.drain()
        except ConnectionError:
            self._dropped()

    async def _read(self, reader, pending: list) -> None:
        while True:
            try:
                line = await reader.readline()
            except (ConnectionError, ValueError):
                line = b""
            if not line:
                if pending:
                    self.drops.append(len(pending))
                self._dropped(reader)
                return
            req = pending.pop(0)
            reply = json.loads(line)
            if reply.get("ok") and "w" in reply:
                req.latency = time.perf_counter() - req.due
                req.w = np.asarray(reply["w"], dtype=np.float64)

    def _dropped(self, reader=None) -> None:
        """Forget a dead connection; its pending requests stay failed."""
        if reader is not None and reader is not self.reader:
            return
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None
        self.pending = []

    async def close(self) -> None:
        if self.task is not None:
            self.task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self.task
        if self.writer is not None:
            self.writer.close()
            with contextlib.suppress(ConnectionError):
                await self.writer.wait_closed()


async def _open_loop(host, port, requests, n_conns, drain_s, drops) -> None:
    """Send each request when due, round-robin over the connections."""
    conns = [_Connection(host, port, drops) for _ in range(n_conns)]
    t0 = time.perf_counter()
    for req in requests:
        req.due += t0
    for i, req in enumerate(requests):
        delay = req.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await conns[i % n_conns].send(req)
    deadline = time.perf_counter() + drain_s
    while any(c.pending for c in conns) and time.perf_counter() < deadline:
        await asyncio.sleep(0.005)
    for c in conns:
        await c.close()


def _launch_daemon(p: dict, X: np.ndarray, trace: bool, tag: str):
    OUT.mkdir(exist_ok=True)
    points = OUT / f"serve-points-{tag}.npy"
    spans = OUT / f"serve-spans-{tag}.json"
    np.save(points, X)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("serve_launcher.py")),
         "--points", str(points), "--params", json.dumps(p),
         "--trace", "1" if trace else "0", "--spans-out", str(spans)],
        stdout=subprocess.PIPE, text=True,
    )
    return proc, t0, spans


def _await_ready(proc, t0: float, timeout: float):
    from repro.serve import ServeClient

    line = proc.stdout.readline()
    if not line.startswith("repro-serve listening on "):
        raise RuntimeError(f"serve launcher did not start: {line!r}")
    host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
    with ServeClient(host, int(port), timeout=timeout) as client:
        client.ping()
    return host, int(port), time.perf_counter() - t0


def check_served(requests: list, us: np.ndarray, solver, rtol: float) -> int:
    """Compare every answered request's ``w`` with an in-process solve.

    A wrong answer counts as failed and its latency becomes infinite, so
    it can never read as a fast answer.
    """
    answered = [i for i, r in enumerate(requests) if r.w is not None]
    if not answered:
        return 0
    ref = solver.solve(us[answered].T)
    failures = 0
    for j, i in enumerate(answered):
        if checks.mismatch_failures(requests[i].w, ref[:, j], rtol):
            requests[i].latency = float("inf")
            failures += 1
    return failures


def serve_wire(p: dict, seed: int, seconds: float, setups: int, rec=None) -> Pass:
    """Open-loop Poisson single-RHS solves against a `repro serve` daemon."""
    from repro.serve import ServeClient

    res = Pass()
    rng = np.random.default_rng(seed)
    X = points(p)
    tag = f"{seed}-{'t' if rec else 'u'}"
    proc, t0, spans_path = _launch_daemon(p, X, rec is not None, tag)
    phases = {}
    drops: list[int] = []
    try:
        host, port, res.metrics["setup_s"] = _await_ready(proc, t0, p["timeout_s"])
        res.attempted += 1
        for phase in ("light", "heavy"):
            # Poisson arrivals over half the run each; twice the expected
            # count of gaps always covers the phase.
            rate, phase_s = p["rates"][phase], seconds / 2
            dues = np.cumsum(rng.exponential(1.0 / rate, size=int(2 * rate * phase_s) + 10))
            dues = dues[dues < phase_s]
            us = rng.standard_normal((dues.size, p["n"]))
            requests = [
                _Request(float(d), (json.dumps({"op": "solve", "rhs": u.tolist()}) + "\n").encode())
                for d, u in zip(dues, us)
            ]
            before = len(drops)
            asyncio.run(_open_loop(host, port, requests, p["connections"], p["timeout_s"], drops))
            phases[phase] = (requests, us, len(drops) - before)
        with ServeClient(host, port, timeout=p["timeout_s"]) as client:
            health = client.health()
            client.shutdown()
        proc.wait(timeout=p["timeout_s"])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    # check every answer against an in-process reference, after the load
    solver = make_solver(p)
    solver.fit(X)
    solver.factorize(p["lam"])
    for phase, (requests, us, n_drops) in phases.items():
        res.fail(check_served(requests, us, solver, p["match_rtol"]),
                 "served w differs from the in-process solve")
        lat_ms = np.array([r.latency for r in requests]) * 1e3
        res.attempted += len(requests)
        res.fail(sum(1 for r in requests if r.w is None), f"{phase} request without an answer")
        tail_ms, pct, count = checks.tail(lat_ms)
        res.metrics[f"serve_p50_ms.{phase}"] = checks.median(lat_ms) if lat_ms.size else float("inf")
        res.metrics[f"serve_tail_ms.{phase}"] = tail_ms
        res.facts[f"tail.{phase}"] = {"percentile": pct, "samples": count}
        late = np.array([r.sent - r.due for r in requests if np.isfinite(r.sent)]) * 1e3
        res.facts[f"generator_late_ms.{phase}"] = {
            "p50": checks.median(late) if late.size else None,
            "max": float(late.max()) if late.size else None,
        }
        res.facts[f"conn_drops.{phase}"] = n_drops
        if phase == "heavy":
            good = np.count_nonzero(lat_ms <= p["latency_limit_ms"])
            res.metrics["serve_goodput_rps.heavy"] = good / (seconds / 2)
    res.facts.update(
        conn_drops=len(drops),
        shed=health["shed"],
        coalescer=health["coalescer"],
        daemon_spans=spans_path if rec is not None else None,
    )
    return res


WORKLOADS = {
    "hybrid_solve": hybrid_solve,
    "direct_update": direct_update,
    "dist_socket": dist_socket,
    "serve_wire": serve_wire,
}
