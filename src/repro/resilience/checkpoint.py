"""The versioned on-disk checkpoint format ``repro.checkpoint/v1``.

Layout (one directory per checkpoint):

.. code-block:: text

    <dir>/MANIFEST.json     # schema, config fingerprint, payload index
    <dir>/solver.pkl        # data, kernel and configs
    <dir>/skeletons.pkl     # the skeletonized H-matrix
    <dir>/level_<L>.pkl     # one tree level's node factors, tagged with
                            # lam and method in the manifest
    <dir>/state.pkl         # what the levels cannot rebuild: lam,
                            # health, stage times, the final path and
                            # the direct methods' frontier LU

Each factor is stored once, in its level payload; ``state`` names the
factorization that :meth:`repro.FastKernelSolver.resume` rebuilds from
the levels by transplanting every node.

``MANIFEST.json`` is the source of truth: a payload file not listed
there does not exist (crash-consistency — payloads are written and
fsync-replaced *before* the manifest references them, so a kill at any
point leaves either the previous consistent state or the new one,
never a manifest pointing at a truncated file).

Safety model — *refuse to load, never a wrong answer*:

* every payload records its sha256; a mismatch on load raises
  :class:`~repro.exceptions.CheckpointError`;
* the manifest records a :func:`config_fingerprint` over the data
  matrix, kernel, and tree/skeleton configs; opening for resume with a
  different fingerprint raises — factors from a different problem are
  never transplanted;
* factor-level payloads additionally record ``lam`` and the solver
  method; :meth:`Checkpoint.load_levels` silently *skips* entries for
  a different ``lam``/method (a legitimate new factorization of the
  same matrix), it does not error.

Pickle note: payloads are loaded with :mod:`pickle`, so a checkpoint
directory carries the usual pickle trust model — only resume from
directories you wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile

import numpy as np

from repro.exceptions import CheckpointError

__all__ = ["CHECKPOINT_SCHEMA", "Checkpoint", "config_fingerprint"]

CHECKPOINT_SCHEMA = "repro.checkpoint/v1"

_MANIFEST = "MANIFEST.json"


def _canonical(obj) -> object:
    """JSON-serializable canonical form of config-ish values."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if hasattr(obj, "__dataclass_fields__"):
        # execution-only knobs (e.g. SolverConfig.backend) do not change
        # the math, so checkpoints stay interchangeable across them.
        skip = getattr(obj, "_FINGERPRINT_EXCLUDE", ())
        return {
            "__type__": type(obj).__name__,
            **{
                k: _canonical(getattr(obj, k))
                for k in sorted(obj.__dataclass_fields__)
                if k not in skip
            },
        }
    # kernels and other simple objects: type name + public attributes
    return {
        "__type__": type(obj).__name__,
        **{
            k: _canonical(v)
            for k, v in sorted(vars(obj).items())
            if not k.startswith("_")
        },
    }


def config_fingerprint(X: np.ndarray, kernel, *configs) -> str:
    """sha256 identity of (data, kernel, configs).

    Two runs with the same fingerprint skeletonize and factorize the
    same matrix with the same parameters, so their checkpointed factors
    are interchangeable.  The data matrix enters via a content hash of
    its float64 bytes (shape included), not object identity.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "x_shape": list(X.shape),
        "x_sha256": hashlib.sha256(X.tobytes()).hexdigest(),
        "kernel": _canonical(kernel),
        "configs": [_canonical(c) for c in configs],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write(path: str, data: bytes) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Checkpoint:
    """One ``repro.checkpoint/v1`` directory.

    Parameters
    ----------
    path:
        Checkpoint directory (created on first save).
    fingerprint:
        The writer's :func:`config_fingerprint`.  On open, an existing
        manifest with a *different* fingerprint is rejected in
        ``mode="resume"`` (:class:`~repro.exceptions.CheckpointError`)
        and discarded in ``mode="write"`` (a new problem starts a fresh
        checkpoint).  ``None`` (inspection tools) accepts any manifest.
    mode:
        ``"write"`` | ``"resume"`` | ``"inspect"``.
    """

    def __init__(
        self,
        path: str,
        fingerprint: str | None = None,
        mode: str = "write",
    ) -> None:
        if mode not in ("write", "resume", "inspect"):
            raise ValueError(f"bad checkpoint mode {mode!r}")
        self.path = str(path)
        self.fingerprint = fingerprint
        self.mode = mode
        self.manifest = self._open()

    # ------------------------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.path, _MANIFEST)

    def _fresh_manifest(self) -> dict:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": self.fingerprint,
            "payloads": {},
        }

    def _open(self) -> dict:
        mp = self._manifest_path()
        if not os.path.exists(mp):
            if self.mode == "resume":
                raise CheckpointError(
                    f"no checkpoint manifest at {mp}; nothing to resume"
                )
            return self._fresh_manifest()
        try:
            with open(mp, encoding="utf-8") as f:
                manifest = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint manifest {mp}: {exc}") from exc
        schema = manifest.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint schema mismatch at {mp}: found {schema!r}, "
                f"this build reads {CHECKPOINT_SCHEMA!r}"
            )
        theirs = manifest.get("fingerprint")
        if self.fingerprint is not None and theirs != self.fingerprint:
            if self.mode == "write":
                # different problem/config: start over rather than mixing
                # incompatible factors in one directory.
                return self._fresh_manifest()
            raise CheckpointError(
                f"checkpoint at {self.path} was written for a different "
                f"problem/config (fingerprint {theirs!r:.20} != "
                f"{self.fingerprint!r:.20}); refusing to load"
            )
        manifest.setdefault("payloads", {})
        return manifest

    def _write_manifest(self) -> None:
        blob = json.dumps(self.manifest, indent=2, sort_keys=True)
        _atomic_write(self._manifest_path(), blob.encode())

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self.manifest["payloads"])

    def has(self, name: str) -> bool:
        return name in self.manifest["payloads"]

    def save(self, name: str, obj, meta: dict | None = None) -> None:
        """Pickle ``obj`` atomically and index it in the manifest."""
        os.makedirs(self.path, exist_ok=True)
        fname = f"{name}.pkl"
        try:
            blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint payload {name!r} is not serializable: {exc}"
            ) from exc
        _atomic_write(os.path.join(self.path, fname), blob)
        entry = {
            "file": fname,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob),
        }
        if meta:
            entry.update(meta)
        self.manifest["payloads"][name] = entry
        self._write_manifest()

    def load(self, name: str):
        """Load a payload, verifying its recorded sha256 first."""
        entry = self.manifest["payloads"].get(name)
        if entry is None:
            raise CheckpointError(
                f"checkpoint at {self.path} has no payload {name!r} "
                f"(have: {self.names()})"
            )
        fpath = os.path.join(self.path, entry["file"])
        # one read: the bytes unpickled are the bytes hashed, so a
        # concurrent writer's replace cannot slip unverified bytes in.
        try:
            with open(fpath, "rb") as f:
                blob = f.read()
        except FileNotFoundError:
            raise CheckpointError(
                f"checkpoint payload file missing: {fpath} (manifest lists it)"
            ) from None
        digest = hashlib.sha256(blob).hexdigest()
        if digest != entry["sha256"]:
            raise CheckpointError(
                f"checkpoint payload {name!r} is corrupted: sha256 "
                f"{digest:.16} != recorded {entry['sha256']:.16}; "
                "refusing to load"
            )
        try:
            return pickle.loads(blob)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint payload {name!r} failed to unpickle: {exc}"
            ) from exc

    def meta(self, name: str) -> dict:
        entry = self.manifest["payloads"].get(name)
        if entry is None:
            raise CheckpointError(f"no payload {name!r} in {self.path}")
        return dict(entry)

    # ------------------------------------------------------------------
    # factor-level helpers
    # ------------------------------------------------------------------
    @staticmethod
    def level_name(level: int) -> str:
        return f"level_{level:03d}"

    def save_level(
        self, level: int, payload: dict, *, lam: float, method: str
    ) -> None:
        self.save(
            self.level_name(level),
            payload,
            meta={"level": level, "lam": lam, "method": method},
        )

    def load_levels(self, *, lam: float, method: str) -> dict[int, dict]:
        """All stored factor levels matching (lam, method).

        Entries for a different ``lam`` or method belong to a different
        (legitimate) factorization of the same matrix and are skipped,
        not errors.  Corrupted matching payloads still raise.
        """
        out: dict[int, dict] = {}
        for name, entry in self.manifest["payloads"].items():
            if "level" not in entry:
                continue
            if entry.get("lam") != lam or entry.get("method") != method:
                continue
            out[int(entry["level"])] = self.load(name)
        return out

    def drop_levels(self) -> None:
        """Forget factor levels (e.g. before re-factorizing with new lam)."""
        names = [n for n, e in self.manifest["payloads"].items() if "level" in e]
        for n in names:
            del self.manifest["payloads"][n]
        if names:
            self._write_manifest()

    def describe(self) -> dict:
        """JSON-friendly summary for ``repro checkpoint inspect``."""
        payloads = {}
        for name, entry in sorted(self.manifest["payloads"].items()):
            fpath = os.path.join(self.path, entry["file"])
            ok = os.path.exists(fpath) and _sha256_file(fpath) == entry["sha256"]
            payloads[name] = {**entry, "intact": ok}
        return {
            "schema": self.manifest.get("schema"),
            "path": self.path,
            "fingerprint": self.manifest.get("fingerprint"),
            "payloads": payloads,
        }
