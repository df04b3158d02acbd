"""``repro serve``: the long-lived solver daemon.

A deliberately small wire protocol — newline-delimited JSON over TCP —
so clients need nothing beyond a socket and ``json`` (see
:class:`repro.serve.ServeClient`).  One request object per line, one
response object per line, in order, per connection:

``{"op": "ping"}``
    liveness probe.
``{"op": "solve", "rhs": [...], "model": fp?, "info": bool?,``
``  "deadline": sec?, "work_budget": units?}``
    solve against a resident model; concurrent solves coalesce.
``{"op": "health"}``
    the ``repro.serve/v1`` blob (registry, coalescer, admission state,
    per-resident ``repro.telemetry/v1`` telemetry).
``{"op": "models"}``
    resident fingerprints.
``{"op": "load", "dir": path, "lam": float?}`` / ``{"op": "evict", "model": fp}``
    registry lifecycle.
``{"op": "update", "model": fp?, "insert": [[...]]?, "delete": [...]?,``
``  "lam": float?, "kernel_params": {...}?}``
    incrementally update a resident model in place (point
    insertion/deletion, lambda refit, kernel-parameter sweep); the
    response carries the model's *new* fingerprint and the structured
    update report (docs/UPDATES.md).
``{"op": "shutdown"}``
    stop the daemon (the response is sent first).

Responses carry ``ok``; failures also carry ``error`` (message),
``status`` (machine-readable class) and ``code`` — the same exit-code
vocabulary as the CLI, so a shed request reports
:data:`repro.cli.EXIT_OVERLOADED` whether it dies in-process or over
the wire.

Solve requests run in a thread pool sized past ``max_batch`` — that is
what lets concurrent client requests sit in the coalescing window
together instead of serializing on the event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ResidentEvictedError,
    StabilityError,
)
from repro.serve.service import SolverService

__all__ = ["ServeDaemon", "run_daemon", "error_payload"]

#: longest request line the daemon reads.  asyncio's default (64 KiB)
#: drops the solve request of any model above ~3,100 points, and the
#: registry does not bound model size.  ``json.dumps`` spends at most 26
#: bytes on a float64 and its separator, so 1 GiB carries a right-hand
#: side of ~40M points, past any model one host can factorize.
MAX_LINE_BYTES = 1 << 30


def error_payload(exc: BaseException) -> dict:
    """Map an exception to the wire-format failure object.

    Mirrors :func:`repro.cli.main`'s exception ladder so the daemon's
    ``code`` field and the CLI's exit codes agree.
    """
    from repro import cli

    if isinstance(exc, OverloadedError):
        status, code = "overloaded", cli.EXIT_OVERLOADED
    elif isinstance(exc, DeadlineExceededError):
        status, code = "deadline", cli.EXIT_DEADLINE
    elif isinstance(exc, ResidentEvictedError):
        # before the generic KeyError rung: "was resident, vanished
        # mid-flight" means reload-and-retry, not a usage error.
        status, code = "evicted", cli.EXIT_ERROR
    elif isinstance(exc, (ConfigurationError, KeyError, ValueError)):
        status, code = "usage", cli.EXIT_USAGE
    elif isinstance(exc, CheckpointError):
        status, code = "checkpoint", cli.EXIT_CHECKPOINT
    elif isinstance(exc, StabilityError):
        status, code = "numerical", cli.EXIT_NUMERICAL
    elif isinstance(exc, ReproError):
        status, code = "error", cli.EXIT_ERROR
    else:
        status, code = "internal", cli.EXIT_ERROR
    message = str(exc) or type(exc).__name__
    return {"ok": False, "error": message, "status": status, "code": code}


class ServeDaemon:
    """Serve a :class:`SolverService` over newline-delimited JSON/TCP."""

    def __init__(
        self,
        service: SolverService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: bound port after :meth:`start` (differs from ``port`` when 0).
        self.bound_port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        # sized past max_batch so a full batch of concurrent solve
        # requests can block in the coalescing window simultaneously.
        self._pool = ThreadPoolExecutor(
            max_workers=max(8, service.config.max_batch + 4),
            thread_name_prefix="repro-serve",
        )

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        assert self._stop is not None
        await self._stop.wait()

    def request_stop(self) -> None:
        """Ask the daemon to stop; safe from any thread.

        A bare ``Event.set()`` from a foreign thread would not wake the
        event loop blocked in :meth:`wait_stopped` — route through
        ``call_soon_threadsafe``.
        """
        if self._stop is None or self._loop is None:
            return
        if self._loop.is_closed():  # pragma: no cover - late stop
            return
        self._loop.call_soon_threadsafe(self._stop.set)

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=True)
        self.service.close()

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    response = error_payload(exc)
                else:
                    response = await self._dispatch(request)
                    response.setdefault("ok", True)
                    if "id" in request:
                        response["id"] = request["id"]
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                if response.get("op") == "shutdown" and response.get("ok"):
                    self.request_stop()
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        loop = asyncio.get_running_loop()
        try:
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "solve":
                # run in the pool: solve() blocks in the coalescing
                # window, and concurrent requests must overlap there.
                return await loop.run_in_executor(
                    self._pool, self._solve_blocking, request
                )
            if op == "health":
                return {"ok": True, "op": "health",
                        "health": self.service.health()}
            if op == "models":
                return {"ok": True, "op": "models",
                        "models": self.service.registry.fingerprints()}
            if op == "load":
                directory = request.get("dir")
                if not directory:
                    raise ValueError("load requires 'dir'")
                fingerprint = await loop.run_in_executor(
                    self._pool,
                    lambda: self.service.registry.load(
                        directory, lam=request.get("lam")
                    ),
                )
                return {"ok": True, "op": "load", "model": fingerprint}
            if op == "update":
                # run in the pool: the re-factorization is CPU-heavy
                # and must not stall the event loop's solve admissions.
                return await loop.run_in_executor(
                    self._pool, self._update_blocking, request
                )
            if op == "evict":
                fingerprint = self.service.registry.resolve(
                    request.get("model")
                )
                return {"ok": True, "op": "evict",
                        "evicted": self.service.registry.evict(fingerprint)}
            if op == "shutdown":
                return {"ok": True, "op": "shutdown"}
            raise ValueError(f"unknown op {op!r}")
        except BaseException as exc:  # noqa: BLE001 - wire boundary
            payload = error_payload(exc)
            payload["op"] = op
            return payload

    def _solve_blocking(self, request: dict) -> dict:
        rhs = np.asarray(request.get("rhs"), dtype=np.float64)
        result = self.service.solve(
            rhs,
            model=request.get("model"),
            with_info=bool(request.get("info")),
            deadline_seconds=request.get("deadline"),
            work_budget=request.get("work_budget"),
        )
        if isinstance(result, list):  # multi-RHS: one payload per column
            return {
                "ok": True,
                "op": "solve",
                "columns": [r.to_payload() for r in result],
            }
        return {"ok": True, "op": "solve", **result.to_payload()}

    def _update_blocking(self, request: dict) -> dict:
        insert = request.get("insert")
        if insert is not None:
            insert = np.asarray(insert, dtype=np.float64)
        delete = request.get("delete")
        if delete is not None:
            delete = np.asarray(delete, dtype=np.intp)
        kernel_params = request.get("kernel_params")
        if kernel_params is not None and not isinstance(kernel_params, dict):
            raise ValueError("kernel_params must be a JSON object")
        result = self.service.update(
            model=request.get("model"),
            X_insert=insert,
            X_delete=delete,
            lam=request.get("lam"),
            kernel_params=kernel_params,
        )
        return {"ok": True, "op": "update", **result}


async def _serve(daemon: ServeDaemon, *, health_out: str | None) -> None:
    await daemon.start()
    print(f"repro-serve listening on {daemon.host}:{daemon.bound_port}",
          flush=True)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(sig, daemon.request_stop)
    try:
        await daemon.wait_stopped()
    finally:
        if health_out:
            # final health snapshot, written while the service is still
            # alive — the CI smoke job archives this artifact.
            with open(health_out, "w") as f:
                json.dump(daemon.service.health(), f, indent=2)
            print(f"health blob written to {health_out}", flush=True)
        await daemon.aclose()


def run_daemon(
    service: SolverService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    health_out: str | None = None,
) -> None:
    """Run the daemon until a shutdown request or SIGINT/SIGTERM."""
    daemon = ServeDaemon(service, host=host, port=port)
    asyncio.run(_serve(daemon, health_out=health_out))
