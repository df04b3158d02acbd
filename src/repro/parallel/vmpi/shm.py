"""Shared-memory pickle envelopes for the socket-backed vMPI fabric.

The socket backend moves point coordinates, message payloads, and
factor payloads between rank processes.  Shipping a multi-megabyte
``ndarray`` through a socket pays a pickle of the *data* through the
kernel (a copy into the frame, a copy through the socket, a copy out).
Instead we use pickle protocol 5's
out-of-band buffers: :func:`pack` pickles only the object *structure*
and diverts every large contiguous buffer (numpy array data, ``bytes``)
into a named ``multiprocessing.shared_memory`` segment, producing a
small **envelope** — the metadata pickle plus an ordered list of buffer
slots::

    {"data": <pickle-5 bytes>,
     "slots": [("shm", name, nbytes) | ("inline", bytes), ...]}

Buffers smaller than :data:`DEFAULT_THRESHOLD` stay inline (a
shared-memory segment costs a file descriptor and a syscall; tiny
headers are cheaper in the frame).  :func:`unpack` re-attaches each segment, copies the bytes out,
and closes it immediately — receivers never hold segment handles, so
lifetime management stays with whoever calls :func:`free` (or passes
``unlink=True`` for single-consumer transfers).

Resource-tracker note: on the Pythons this repo supports (< 3.13,
no ``track=False``), *both* creating and attaching a segment registers
it with the ``multiprocessing.resource_tracker``, which unlinks
registered segments when the registering process exits.  A worker that
creates a result segment and exits before the supervisor reads it would
therefore have its segment reaped under the reader.  Worse, with the
spawn start method every rank shares the supervisor's tracker daemon,
so a child-create + supervisor-attach pair registers the *same* name
twice into the tracker's per-type set — and the second unregister makes
the daemon print a KeyError traceback.  We therefore suppress tracker
registration entirely (construction under :func:`_untracked`) and
manage segment lifetime explicitly: the supervisor's message log owns
message segments, results are unlinked by their single consumer, and
:func:`free` handles the rest.
"""

from __future__ import annotations

import pickle
import threading
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory

__all__ = ["pack", "unpack", "free", "segment_names", "DEFAULT_THRESHOLD"]

#: buffers at or above this many bytes go to shared memory (below: inline).
DEFAULT_THRESHOLD = 1 << 14

# SharedMemory construction must not reach the resource tracker (see
# module docstring); the patch is process-global, so serialize it across
# the supervisor's main and router threads.
_tracker_lock = threading.Lock()


@contextmanager
def _untracked():
    """Suppress resource-tracker traffic for SharedMemory calls.

    Covers both ``register`` (SharedMemory construction) and
    ``unregister`` (``SharedMemory.unlink`` calls it internally — an
    unregister for a name we never registered makes the tracker daemon
    print a KeyError traceback).

    Only the ``"shared_memory"`` resource type is suppressed: the patch
    is process-global, and a queue's SemLock finalizer running on
    another thread during this window must still reach the tracker —
    a swallowed semaphore ``unregister`` resurfaces at interpreter
    shutdown as a spurious "leaked semaphore objects" warning.
    """
    with _tracker_lock:
        orig_reg = resource_tracker.register
        orig_unreg = resource_tracker.unregister

        def reg(name, rtype):
            if rtype != "shared_memory":
                orig_reg(name, rtype)

        def unreg(name, rtype):
            if rtype != "shared_memory":
                orig_unreg(name, rtype)

        resource_tracker.register = reg
        resource_tracker.unregister = unreg
        try:
            yield
        finally:
            resource_tracker.register = orig_reg
            resource_tracker.unregister = orig_unreg


def pack(obj) -> dict:
    """Serialize ``obj`` into a shared-memory envelope.

    Every pickle-5 out-of-band buffer of at least
    :data:`DEFAULT_THRESHOLD` bytes is copied into its own shared-memory
    segment; the envelope itself stays small enough to travel in a
    socket frame.  The caller owns the
    segments: pass the envelope to :func:`unpack` (``unlink=True`` for
    the last consumer) or :func:`free` it.
    """
    buffers: list[pickle.PickleBuffer] = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    slots: list[tuple] = []
    try:
        for pb in buffers:
            mv = pb.raw()
            if mv.nbytes >= DEFAULT_THRESHOLD:
                with _untracked():
                    seg = shared_memory.SharedMemory(create=True, size=mv.nbytes)
                seg.buf[: mv.nbytes] = mv
                slots.append(("shm", seg.name, mv.nbytes))
                seg.close()
            else:
                slots.append(("inline", bytes(mv)))
    except BaseException:
        free({"data": b"", "slots": slots})
        raise
    return {"data": data, "slots": slots}


def unpack(env: dict, *, unlink: bool = False):
    """Rebuild the object from an envelope.

    Segment contents are copied out and the segments closed, so the
    returned object has no live dependency on shared memory.  With
    ``unlink=True`` (single-consumer transfers: results, executor task
    payloads) each segment is also removed from the system.
    """
    buffers: list[bytes] = []
    for slot in env["slots"]:
        if slot[0] == "inline":
            buffers.append(slot[1])
            continue
        _, name, nbytes = slot
        with _untracked():
            seg = shared_memory.SharedMemory(name=name)
        try:
            buffers.append(bytes(seg.buf[:nbytes]))
        finally:
            seg.close()
            if unlink:
                try:
                    with _untracked():
                        seg.unlink()
                except FileNotFoundError:  # pragma: no cover - already freed
                    pass
    return pickle.loads(env["data"], buffers=buffers)


def free(env: dict) -> None:
    """Unlink every segment of an envelope (idempotent)."""
    for slot in env["slots"]:
        if slot[0] != "shm":
            continue
        name = slot[1]
        try:
            with _untracked():
                seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        seg.close()
        try:
            with _untracked():
                seg.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent free
            pass


def segment_names(env: dict) -> list[str]:
    """Names of the shared-memory segments an envelope references."""
    return [slot[1] for slot in env["slots"] if slot[0] == "shm"]
