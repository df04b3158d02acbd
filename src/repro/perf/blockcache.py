"""Budgeted LRU cache for dense kernel blocks (paper Table IV, adaptive).

The paper's single-node experiments frame storage as a budget: storing
every skeleton-row block is fastest per solve but costs O(s N log N)
words; recomputing everything (GSKS) costs O(1) words but pays kernel
evaluations per product.  :class:`BlockCache` turns that all-or-nothing
choice into a per-block decision:

* a **word budget** caps persistent float64 storage; least-recently-used
  blocks are evicted when a new block needs the space, and callers fall
  back to their matrix-free (GSKS) path for blocks larger than the
  budget.  A block that fits is always stored: in this numpy
  reproduction, streaming ``m n`` stored words beats recomputing the
  block with the fused summation (the paper's Table IV conclusion for
  blocks that fit; the roofline model agrees on the probed host and on
  ``PYTHON_NODE``);
* **striped per-key fill locks** let concurrent misses on *different*
  keys (vMPI thread ranks, concurrent solves) compute in parallel while
  concurrent misses on the *same* key compute the block exactly once;
* hit/miss/eviction/rejection counters and a peak-storage high-water
  mark feed the telemetry gauges and the repository benchmark's
  ``perf.cache_*`` metrics (``perfbench/run.py``).

Keys are tuples whose first element is a namespace token (one per
model: an H-matrix and its frontier-moved copies share it);
:meth:`BlockCache.drop_prefix` releases a namespace when the last of its
owners is garbage collected.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

__all__ = [
    "BlockInfo",
    "CacheStats",
    "BlockCache",
    "default_cache",
    "set_default_cache",
    "configure_default_cache",
]

#: namespace tokens for cache owners (one per model's H-matrix).
_NAMESPACES = itertools.count(1)


def next_namespace() -> int:
    """A fresh namespace token for a new cache owner."""
    return next(_NAMESPACES)


@dataclass(frozen=True)
class BlockInfo:
    """Size hint for one ``m x n`` kernel block: the cache admits it when
    its ``words`` fit the budget."""

    m: int
    n: int

    @property
    def words(self) -> int:
        return self.m * self.n


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of a :class:`BlockCache`.

    ``lookups`` counts cache consultations (one per :meth:`fetch` /
    :meth:`BlockCache.get_or_compute` call and one per admitted
    :meth:`BlockCache.offer` probe); the accounting invariant
    ``hits + misses == lookups`` holds even under concurrent fills.
    """

    hits: int
    misses: int
    lookups: int
    evictions: int
    rejections: int
    entries: int
    words: int
    peak_words: int
    budget_words: int | None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BlockCache:
    """Process-wide budgeted LRU store for dense kernel blocks.

    Parameters
    ----------
    budget_words:
        Maximum persistent float64 words held at any time; ``None``
        means unbounded (the seed's store-everything behavior).  The
        budget is a hard invariant — enforced even under concurrent
        fills (eviction happens under the structure lock, before
        insertion).
    n_stripes:
        Number of per-key fill locks; fills of keys mapping to
        different stripes proceed concurrently.
    """

    def __init__(
        self,
        budget_words: int | None = None,
        *,
        n_stripes: int = 64,
    ) -> None:
        if budget_words is not None and budget_words < 0:
            raise ValueError(f"budget_words must be >= 0 or None; got {budget_words}")
        if n_stripes < 1:
            raise ValueError("n_stripes must be >= 1")
        self.budget_words = budget_words
        self._entries: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self._words = 0
        self._lock = threading.Lock()
        self._stripes = [threading.Lock() for _ in range(n_stripes)]
        self._hits = 0
        self._misses = 0
        self._lookups = 0
        self._evictions = 0
        self._rejections = 0
        self._peak_words = 0
        self._stores = 0
        _instances.add(self)

    # -- spawn/fork safety ------------------------------------------------
    def __getstate__(self):
        """Spawn-safety: a cache travels as *configuration*, not contents.

        Locks are not picklable, cached blocks are pure recomputable
        data, and per-process stats must start at zero in a child — so
        pickling a cache ships only ``budget_words`` and striping; the
        receiver starts empty.
        """
        return {
            "budget_words": self.budget_words,
            "n_stripes": len(self._stripes),
        }

    def __setstate__(self, state):
        self.__init__(state["budget_words"], n_stripes=state["n_stripes"])

    def _reinit_after_fork(self) -> None:
        """Fork-safety: fresh locks + zeroed per-process stats.

        A fork can land while another thread holds ``_lock`` or a
        stripe lock (the child's copy would stay locked forever), and
        inherited hit/miss counters would double-count once a child's
        telemetry is merged at join.  Entries are kept: they are valid
        copy-on-write data the child can keep serving.
        """
        self._lock = threading.Lock()
        self._stripes = [threading.Lock() for _ in self._stripes]
        self._hits = self._misses = self._lookups = 0
        self._evictions = self._rejections = 0
        self._peak_words = self._words

    # -- striping --------------------------------------------------------
    def key_lock(self, key: Hashable) -> threading.Lock:
        """The stripe lock guarding fills of ``key``.

        Also usable by callers to guard their own lazy per-key
        initialization (e.g. building a summation object exactly once)
        without a global lock.
        """
        return self._stripes[hash(key) % len(self._stripes)]

    # -- policy ----------------------------------------------------------
    def should_store(self, info: BlockInfo | None) -> bool:
        """True when a block fits the budget (with no size hint, assume so)."""
        return (
            info is None
            or self.budget_words is None
            or info.words <= self.budget_words
        )

    # -- core operations -------------------------------------------------
    def fetch(self, key: Hashable) -> np.ndarray | None:
        """Return the cached block for ``key`` or None, counting hit/miss."""
        with self._lock:
            self._lookups += 1
            block = self._entries.get(key)
            if block is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return block

    def get_or_compute(
        self,
        key: Hashable,
        factory: Callable[[], np.ndarray],
        info: BlockInfo | None = None,
    ) -> np.ndarray:
        """The block for ``key``, computing (once per concurrent miss) if
        absent.  Always returns the block; stores it only when it fits
        the budget."""
        block = self.fetch(key)
        if block is not None:
            return block
        with self.key_lock(key):
            with self._lock:
                block = self._entries.get(key)
                if block is not None:
                    # a racing thread filled the block between our fetch
                    # and taking the stripe lock: this call is served from
                    # the cache, so reclassify the fetch's miss as a hit
                    # (keeps hits + misses == lookups and stops hit_rate
                    # skewing low exactly under concurrent fills).
                    self._entries.move_to_end(key)
                    self._hits += 1
                    self._misses -= 1
                    return block
            block = np.asarray(factory())
            if self.should_store(info):
                self._admit(key, block)
            else:
                with self._lock:
                    self._rejections += 1
            return block

    def offer(
        self,
        key: Hashable,
        factory: Callable[[], np.ndarray],
        info: BlockInfo | None = None,
    ) -> np.ndarray | None:
        """Like :meth:`get_or_compute`, but returns None *without
        computing* when the block does not fit the budget — the caller
        then uses its matrix-free path instead.
        """
        if not self.should_store(info):
            with self._lock:
                self._rejections += 1
            return None
        with self.key_lock(key):
            with self._lock:
                self._lookups += 1
                block = self._entries.get(key)
                if block is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return block
                self._misses += 1
            block = np.asarray(factory())
            self._admit(key, block)
            return block

    def put(self, key: Hashable, block: np.ndarray) -> bool:
        """Force-store a block (subject to the budget); True if stored."""
        return self._admit(key, np.asarray(block))

    def _admit(self, key: Hashable, block: np.ndarray) -> bool:
        words = int(block.size)
        with self._lock:
            if self.budget_words is not None and words > self.budget_words:
                # reject *before* touching any existing entry for the
                # key: a failed re-admit must not silently drop the old
                # cached block.
                self._rejections += 1
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._words -= old.size
            if self.budget_words is not None:
                while self._words + words > self.budget_words and self._entries:
                    _, evicted = self._entries.popitem(last=False)
                    self._words -= evicted.size
                    self._evictions += 1
            self._entries[key] = block
            self._words += words
            self._stores += 1
            self._peak_words = max(self._peak_words, self._words)
            return True

    # -- queries and lifecycle -------------------------------------------
    def contains(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def words(self) -> int:
        with self._lock:
            return self._words

    @property
    def stores(self) -> int:
        """Blocks stored so far, never reset: a reader that sees the same
        count twice knows no namespace grew in between."""
        return self._stores

    def words_of_prefix(self, prefix) -> int:
        """Persistent words held under namespace ``prefix`` (``key[0]``)."""
        with self._lock:
            return sum(
                b.size
                for k, b in self._entries.items()
                if isinstance(k, tuple) and k and k[0] == prefix
            )

    def drop(self, key: Hashable) -> None:
        with self._lock:
            block = self._entries.pop(key, None)
            if block is not None:
                self._words -= block.size

    def drop_prefix(self, prefix) -> None:
        """Release every entry under namespace ``prefix``."""
        with self._lock:
            doomed = [
                k
                for k in self._entries
                if isinstance(k, tuple) and k and k[0] == prefix
            ]
            for k in doomed:
                self._words -= self._entries.pop(k).size

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._words = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                lookups=self._lookups,
                evictions=self._evictions,
                rejections=self._rejections,
                entries=len(self._entries),
                words=self._words,
                peak_words=self._peak_words,
                budget_words=self.budget_words,
            )

    def publish(self, metrics=None) -> None:
        """Publish this cache's counters into the metrics registry.

        Called automatically for the process-default cache by
        :func:`repro.obs.telemetry_snapshot`; other caches publish
        explicitly.  Counters are exported as gauges because a cache's
        internal counters can be reset (:meth:`reset_stats`).
        """
        from repro.obs.metrics import registry

        reg = metrics if metrics is not None else registry()
        s = self.stats()
        reg.gauge("blockcache.hits").set(s.hits)
        reg.gauge("blockcache.misses").set(s.misses)
        reg.gauge("blockcache.lookups").set(s.lookups)
        reg.gauge("blockcache.evictions").set(s.evictions)
        reg.gauge("blockcache.rejections").set(s.rejections)
        reg.gauge("blockcache.entries").set(s.entries)
        reg.gauge("blockcache.words").set(s.words)
        reg.gauge("blockcache.peak_words").set(s.peak_words)
        reg.gauge("blockcache.hit_rate").set(s.hit_rate)

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = self._misses = self._lookups = 0
            self._evictions = self._rejections = 0
            self._peak_words = self._words

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"BlockCache(entries={s.entries}, words={s.words}, "
            f"budget={s.budget_words}, hit_rate={s.hit_rate:.2f})"
        )


# -- process-wide default ------------------------------------------------
_default_lock = threading.Lock()
_default: BlockCache | None = None
_instances: "weakref.WeakSet[BlockCache]" = weakref.WeakSet()


def _after_fork_in_child() -> None:  # pragma: no cover - exercised via mp
    global _default_lock
    _default_lock = threading.Lock()
    for cache in list(_instances):
        cache._reinit_after_fork()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_after_fork_in_child)


def default_cache() -> BlockCache:
    """The process-wide cache used when no explicit cache is passed."""
    global _default
    with _default_lock:
        if _default is None:
            _default = BlockCache()
        return _default


def set_default_cache(cache: BlockCache) -> BlockCache:
    """Replace the process-wide default cache; returns the previous one."""
    global _default
    if not isinstance(cache, BlockCache):
        raise TypeError("set_default_cache expects a BlockCache")
    with _default_lock:
        previous = _default
        _default = cache
    return previous if previous is not None else cache


def configure_default_cache(
    budget_words: int | None = None,
    *,
    n_stripes: int = 64,
) -> BlockCache:
    """Install a fresh default cache with the given budget and return it.

    The storage-budget knob of the whole library: H-matrices built
    afterwards adopt the new cache (existing ones keep the cache they
    were built with).
    """
    cache = BlockCache(budget_words, n_stripes=n_stripes)
    set_default_cache(cache)
    return cache
