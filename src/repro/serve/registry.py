"""Resident-factorization registry: the expensive artifact, kept warm.

The whole economic argument of the paper is that the O(N log N)
factorization is paid once and amortized over many cheap solves — yet
every CLI entry point used to rebuild it per invocation.
:class:`ModelRegistry` keeps factorized :class:`FastKernelSolver`
instances *resident*, keyed by their ``repro.checkpoint/v1``
``config_fingerprint`` (the same identity under which checkpoints are
written, so a checkpoint directory and a live model for the same
problem are interchangeable), and warm-loads models from checkpoint
directories via :meth:`FastKernelSolver.resume`.

Memory is governed by the BlockCache budget discipline applied at
model granularity: a word budget caps the summed persistent storage of
all residents, admission (and each served batch that grew the resident
that served it) evicts least-recently-used residents to make room, and
a model that alone exceeds the budget is refused
(:class:`~repro.exceptions.OverloadedError`), or evicted once it
outgrows the budget while resident, rather than silently evicting
everything else.

Every admitted model is telemetry-scoped
(:meth:`FastKernelSolver.scope_telemetry`), so the health endpoint can
report a per-model ``repro.telemetry/v1`` blob without the residents
interleaving each other's metric series.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.solver import FastKernelSolver
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    NotFactorizedError,
    OverloadedError,
    ResidentEvictedError,
)
from repro.obs import registry as metrics_registry

__all__ = ["ModelRegistry", "ResidentModel"]


@dataclass
class ResidentModel:
    """One factorized solver held resident by the registry."""

    fingerprint: str
    solver: FastKernelSolver
    #: "registered" for in-process admissions, else the checkpoint path.
    source: str
    #: persistent float64 words (the H-matrix's, cached ``V`` blocks
    #: included, plus the factorization's own) — the unit the registry
    #: budget is charged in.
    storage_words: int
    #: solve batches served through this resident (registry-lock guarded).
    solves: int = field(default=0)
    #: :func:`_growth_mark` when ``storage_words`` was measured.
    mark: tuple = field(default=(), init=False, repr=False)

    def describe(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "source": self.source,
            "storage_words": self.storage_words,
            "solves": self.solves,
            "n_points": self.solver.n_points,
            "lam": getattr(self.solver.factorization, "lam", None),
        }


def _model_words(solver: FastKernelSolver) -> int:
    """The H-matrix's words (its cached blocks include every ``V`` block
    the factorization reads) plus what the factorization holds itself."""
    words = solver.hmatrix.storage_words()
    if solver.factorization is not None:
        words += solver.factorization.factor_words()
    return int(words)


def _growth_mark(solver: FastKernelSolver) -> tuple:
    """Changes whenever the solver can have gained words: its block
    cache stored a block, or the hybrid assembled its reduced operator.
    O(1), unlike :func:`_model_words`."""
    reduced = getattr(solver.factorization, "reduced", None)
    return solver.hmatrix.cache.stores, getattr(reduced, "z", None) is not None


class ModelRegistry:
    """LRU registry of resident factorized solvers, keyed by fingerprint.

    Parameters
    ----------
    budget_words:
        Word budget over the summed ``storage_words`` of all residents
        (``None`` = unbounded).  Enforced on admission, BlockCache
        style: evict LRU residents until the newcomer fits; refuse a
        newcomer that cannot fit an empty registry.  Re-enforced after
        a served batch that grew its resident (:meth:`count_solve`).

    Thread safety: every method is safe to call concurrently; the lock
    covers the resident table and counters, never a solve (callers hold
    plain references to :class:`ResidentModel` while solving, so an
    eviction during a solve only prevents *future* lookups).
    """

    def __init__(self, budget_words: int | None = None) -> None:
        if budget_words is not None and budget_words < 0:
            raise ConfigurationError(
                f"budget_words must be >= 0 or None; got {budget_words}"
            )
        self.budget_words = budget_words
        self._lock = threading.Lock()
        self._models: "OrderedDict[str, ResidentModel]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def register(
        self, solver: FastKernelSolver, *, source: str = "registered"
    ) -> str:
        """Admit a fitted+factorized solver; returns its fingerprint.

        Re-registering the same fingerprint replaces the resident (the
        new factorization may carry a different ``lam``).
        """
        if solver.hmatrix is None:
            raise ConfigurationError("register() requires a fitted solver")
        if solver.factorization is None:
            raise NotFactorizedError(
                "register() requires a factorized solver — the registry "
                "exists to amortize the factorization, not to rebuild it"
            )
        fingerprint = solver.fingerprint()
        solver.scope_telemetry(fingerprint[:12])
        mark = _growth_mark(solver)
        words = _model_words(solver)
        model = ResidentModel(
            fingerprint=fingerprint,
            solver=solver,
            source=source,
            storage_words=words,
        )
        model.mark = mark
        reg = metrics_registry()
        with self._lock:
            if self.budget_words is not None and words > self.budget_words:
                raise OverloadedError(
                    f"model {fingerprint[:12]} needs {words} words but the "
                    f"registry budget is {self.budget_words}; refusing to "
                    "evict every other resident for a model that cannot fit"
                )
            old = self._models.pop(fingerprint, None)
            if self.budget_words is not None:
                while (
                    self._resident_words() + words > self.budget_words
                    and self._models
                ):
                    evicted_fp, _ = self._models.popitem(last=False)
                    self._evictions += 1
                    reg.counter("serve.registry.evictions").inc()
            self._models[fingerprint] = model
            if old is None:
                reg.counter("serve.registry.loads").inc()
            reg.gauge("serve.registry.residents").set(len(self._models))
            reg.gauge("serve.registry.words").set(self._resident_words())
        return fingerprint

    def load(self, checkpoint_dir: str, *, lam: float | None = None) -> str:
        """Warm-load a model from a ``repro.checkpoint/v1`` directory.

        Uses :meth:`FastKernelSolver.resume`; when the checkpoint holds
        no factorized ``state`` payload (the writer was killed before
        :meth:`save_checkpoint`, or only per-level snapshots exist),
        ``lam`` selects the factorization to (re)build — resuming from
        whatever completed levels the checkpoint holds.
        """
        solver = FastKernelSolver.resume(checkpoint_dir)
        if solver.factorization is None:
            if lam is None:
                raise CheckpointError(
                    f"checkpoint at {checkpoint_dir} holds no factorized "
                    "state; pass lam= to factorize on load"
                )
            solver.factorize(lam)
        return self.register(solver, source=str(checkpoint_dir))

    # ------------------------------------------------------------------
    # lookup / lifecycle
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> ResidentModel:
        """The resident for ``fingerprint`` (LRU-touched); KeyError if absent."""
        reg = metrics_registry()
        with self._lock:
            model = self._models.get(fingerprint)
            if model is None:
                self._misses += 1
                reg.counter("serve.registry.misses").inc()
                raise KeyError(
                    f"no resident model {fingerprint!r} "
                    f"(residents: {[f[:12] for f in self._models]})"
                )
            self._models.move_to_end(fingerprint)
            self._hits += 1
            reg.counter("serve.registry.hits").inc()
            return model

    def peek(self, fingerprint: str) -> ResidentModel:
        """Lookup without LRU touch or hit/miss accounting.

        The coalescer flush path uses this: the request already counted
        its hit at admission, and a flush must not re-order the LRU
        under the admissions that funded it.

        Raises
        ------
        ResidentEvictedError
            When the fingerprint was resident at admission time but was
            evicted — or invalidated by :meth:`update_resident` — before
            this flush pinned it.  A :class:`KeyError` subclass, but
            typed so the daemon can tell the client "reload and retry"
            instead of "unknown model".
        """
        with self._lock:
            model = self._models.get(fingerprint)
            if model is None:
                raise ResidentEvictedError(
                    f"resident model {fingerprint!r} was evicted mid-flight"
                )
            return model

    def resolve(self, fingerprint: str | None) -> str:
        """Resolve ``None``/a unique prefix to a full resident fingerprint.

        ``None`` selects the sole resident (errors when the registry
        holds zero or several models — the client must then name one).
        """
        with self._lock:
            if fingerprint is None:
                if len(self._models) != 1:
                    raise KeyError(
                        "model fingerprint required: registry holds "
                        f"{len(self._models)} residents"
                    )
                return next(iter(self._models))
            if fingerprint in self._models:
                return fingerprint
            matches = [f for f in self._models if f.startswith(fingerprint)]
            if len(matches) == 1:
                return matches[0]
            raise KeyError(
                f"no unique resident matches {fingerprint!r} "
                f"({len(matches)} candidates)"
            )

    def evict(self, fingerprint: str) -> bool:
        """Drop a resident; True if it was present."""
        with self._lock:
            model = self._models.pop(fingerprint, None)
            if model is not None:
                self._evictions += 1
                reg = metrics_registry()
                reg.counter("serve.registry.evictions").inc()
                reg.gauge("serve.registry.residents").set(len(self._models))
                reg.gauge("serve.registry.words").set(self._resident_words())
            return model is not None

    def resolve_for_update(self, fingerprint: str | None) -> str:
        """:meth:`resolve`, but a name matching *nothing* raises
        :class:`~repro.exceptions.ResidentEvictedError` instead of a
        bare ``KeyError``: in the update protocol a vanished fingerprint
        means a concurrent update or eviction rotated it away, and the
        client should re-list models and retry, not fix its request.
        Ambiguous prefixes and an empty/crowded registry stay usage
        errors.
        """
        try:
            return self.resolve(fingerprint)
        except ResidentEvictedError:
            raise
        except KeyError as exc:
            if fingerprint is None or "(0 candidates)" not in str(exc):
                raise
            raise ResidentEvictedError(
                f"resident model {fingerprint!r} was evicted mid-flight"
            ) from exc

    def update_resident(
        self,
        fingerprint: str,
        *,
        X_insert=None,
        X_delete=None,
        lam: float | None = None,
        kernel_params: dict | None = None,
    ) -> str:
        """Incrementally update a resident model in place; returns the
        *new* fingerprint it is resident under.

        The update mutates the model's data, so its
        ``config_fingerprint`` changes: the stale entry is removed
        *before* the mutation starts (atomically w.r.t. concurrent
        :meth:`peek`/:meth:`get` — an in-flight solve that already holds
        the :class:`ResidentModel` reference finishes against the
        pre-update factors; a later flush gets
        :class:`~repro.exceptions.ResidentEvictedError` and the client
        retries against the new fingerprint).  On update failure the
        stale entry is *not* re-admitted — its fingerprint promises a
        state the solver may no longer be in.

        Accepts a unique fingerprint prefix, like every other lookup
        (see :meth:`resolve_for_update` for the eviction-typed variant).
        """
        fingerprint = self.resolve_for_update(fingerprint)
        reg = metrics_registry()
        with self._lock:
            model = self._models.pop(fingerprint, None)
            if model is None:
                raise ResidentEvictedError(
                    f"resident model {fingerprint!r} was evicted mid-flight"
                )
            reg.gauge("serve.registry.residents").set(len(self._models))
            reg.gauge("serve.registry.words").set(self._resident_words())
        try:
            model.solver.update(
                X_insert=X_insert,
                X_delete=X_delete,
                lam=lam,
                kernel_params=kernel_params,
            )
        except Exception:
            reg.counter("serve.registry.update_failures").inc()
            raise
        reg.counter("serve.registry.updates").inc()
        new_fp = self.register(model.solver, source=model.source)
        with self._lock:
            resident = self._models.get(new_fp)
            if resident is not None:
                resident.solves = model.solves
        return new_fp

    def fingerprints(self) -> list[str]:
        with self._lock:
            return list(self._models)

    def models(self) -> list[ResidentModel]:
        with self._lock:
            return list(self._models.values())

    def count_solve(self, fingerprint: str) -> None:
        """Count a served batch and re-charge the resident if it grew.

        A resident gains words after admission (a hybrid's assembled
        reduced operator, cache fills).  When its :func:`_growth_mark`
        moved, it is re-measured and the budget enforced as admission
        does: other residents are evicted, least recently used first,
        until the total fits, and a resident that alone no longer fits
        is evicted itself rather than everything else.
        """
        with self._lock:
            model = self._models.get(fingerprint)
            if model is None:
                return
            model.solves += 1
            mark = _growth_mark(model.solver)
            if mark == model.mark:
                return
        words = _model_words(model.solver)
        reg = metrics_registry()
        with self._lock:
            if self._models.get(fingerprint) is not model:
                return  # evicted or replaced while it was measured
            model.mark, model.storage_words = mark, words
            if self.budget_words is not None:
                if words > self.budget_words:
                    victims = [fingerprint]
                else:
                    victims = [fp for fp in self._models if fp != fingerprint]
                for fp in victims:
                    if self._resident_words() <= self.budget_words:
                        break
                    del self._models[fp]
                    self._evictions += 1
                    reg.counter("serve.registry.evictions").inc()
            reg.gauge("serve.registry.residents").set(len(self._models))
            reg.gauge("serve.registry.words").set(self._resident_words())

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def _resident_words(self) -> int:
        return sum(m.storage_words for m in self._models.values())

    def stats(self) -> dict:
        """JSON-friendly registry digest for the health endpoint."""
        with self._lock:
            return {
                "residents": len(self._models),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "resident_words": self._resident_words(),
                "budget_words": self.budget_words,
                "models": {
                    fp: m.describe() for fp, m in self._models.items()
                },
            }
