"""BlockCache: budget/LRU/policy unit tests + concurrent-fill stress.

The cache's hard invariant — persistent words never exceed the budget,
even while the task-parallel factorization executor fills it from many
threads — is what makes ``configure_default_cache`` a safe memory knob.
"""

from __future__ import annotations

import gc
import threading

import numpy as np
import pytest

from repro.config import SkeletonConfig, SolverConfig, TreeConfig
from repro.hmatrix import build_hmatrix
from repro.kernels import GaussianKernel
from repro.parallel.taskdag import execute_factorization
from repro.perf import (
    BlockCache,
    BlockInfo,
    configure_default_cache,
    default_cache,
    set_default_cache,
)
from repro.solvers import factorize

RNG = np.random.default_rng(77)


@pytest.fixture
def restore_default_cache():
    """Snapshot the process-wide cache and restore it afterwards."""
    previous = default_cache()
    yield
    set_default_cache(previous)


class TestBudgetAndLRU:
    def test_budget_is_hard_invariant(self):
        cache = BlockCache(budget_words=100)
        for i in range(20):
            cache.put(("t", i), np.zeros((5, 6)))
            assert cache.words <= 100
        stats = cache.stats()
        assert stats.peak_words <= 100
        assert stats.evictions > 0

    def test_lru_eviction_order(self):
        cache = BlockCache(budget_words=30)
        cache.put(("t", "a"), np.zeros(10))
        cache.put(("t", "b"), np.zeros(10))
        cache.put(("t", "c"), np.zeros(10))
        # touch "a" so "b" becomes the least recently used entry.
        assert cache.fetch(("t", "a")) is not None
        cache.put(("t", "d"), np.zeros(10))
        assert cache.contains(("t", "a"))
        assert not cache.contains(("t", "b"))
        assert cache.contains(("t", "c")) and cache.contains(("t", "d"))

    def test_oversize_block_rejected(self):
        cache = BlockCache(budget_words=10)
        assert not cache.put(("t", 0), np.zeros(11))
        assert cache.words == 0
        assert cache.stats().rejections == 1

    def test_replacing_entry_reclaims_words(self):
        cache = BlockCache(budget_words=50)
        cache.put(("t", 0), np.zeros(40))
        cache.put(("t", 0), np.zeros(30))
        assert cache.words == 30
        assert cache.stats().entries == 1

    def test_failed_readmit_keeps_old_entry(self):
        """Regression: re-admitting a key with an oversized block must
        reject *without* dropping the block already cached for that key
        (the rejection used to pop the old entry first)."""
        cache = BlockCache(budget_words=50)
        old = np.arange(20, dtype=np.float64)
        assert cache.put(("t", 0), old)
        assert not cache.put(("t", 0), np.zeros(60))  # over budget: reject
        assert cache.contains(("t", 0))
        assert cache.fetch(("t", 0)) is old
        assert cache.words == 20
        assert cache.stats().rejections == 1


class TestCounters:
    def test_hit_miss_accounting(self):
        cache = BlockCache()
        calls = []
        block = cache.get_or_compute(("t", 1), lambda: calls.append(1) or np.ones(4))
        again = cache.get_or_compute(("t", 1), lambda: calls.append(1) or np.ones(4))
        assert block is again  # identity, not a copy
        assert len(calls) == 1
        stats = cache.stats()
        assert stats.hits >= 1 and stats.misses >= 1
        assert 0.0 < stats.hit_rate < 1.0

    def test_reset_stats_keeps_contents(self):
        cache = BlockCache()
        cache.put(("t", 1), np.ones(4))
        cache.fetch(("t", 1))
        cache.reset_stats()
        stats = cache.stats()
        assert stats.hits == stats.misses == 0
        assert stats.entries == 1 and stats.words == 4

    def test_lookup_invariant_single_thread(self):
        cache = BlockCache()
        cache.get_or_compute(("t", 1), lambda: np.ones(4))
        cache.get_or_compute(("t", 1), lambda: np.ones(4))
        cache.fetch(("t", 2))  # miss
        stats = cache.stats()
        assert stats.lookups == 3
        assert stats.hits + stats.misses == stats.lookups

    def test_concurrent_fill_accounting_is_exact(self):
        """8 threads racing over shared keys: hits + misses == lookups,
        and exactly one miss per distinct key (the racing threads that
        lose the fill race are reclassified as hits, not extra misses)."""
        import concurrent.futures

        cache = BlockCache()
        n_keys, n_threads, per_thread = 7, 8, 40
        barrier = threading.Barrier(n_threads)

        def work(tid):
            barrier.wait()  # maximize fill races
            for i in range(per_thread):
                key = ("t", (tid + i) % n_keys)
                block = cache.get_or_compute(key, lambda: np.ones(8))
                assert block.shape == (8,)

        with concurrent.futures.ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, range(n_threads)))

        stats = cache.stats()
        assert stats.lookups == n_threads * per_thread
        assert stats.hits + stats.misses == stats.lookups
        assert stats.misses == n_keys  # one true fill per key
        assert stats.entries == n_keys


class TestPolicy:
    def test_python_node_stores_typical_blocks(self):
        cache = BlockCache()
        assert cache.should_store(BlockInfo(m=64, n=64))
        assert cache.should_store(None)

    def test_policy_can_decline(self):
        # the budget is the only admission rule: a block larger than it
        # is declined.
        cache = BlockCache(budget_words=64 * 64 - 1)
        assert not cache.should_store(BlockInfo(m=64, n=64))

    def test_offer_declines_without_computing(self):
        cache = BlockCache(budget_words=8 * 8 - 1)

        def factory():  # pragma: no cover - must never run
            raise AssertionError("offer computed a declined block")

        assert cache.offer(("t", 1), factory, BlockInfo(m=8, n=8)) is None
        assert cache.stats().rejections == 1

    def test_offer_over_budget_declines(self):
        cache = BlockCache(budget_words=10)
        out = cache.offer(("t", 1), lambda: np.zeros(64), BlockInfo(m=8, n=8))
        assert out is None
        assert cache.words == 0

    def test_get_or_compute_returns_even_when_declined(self):
        cache = BlockCache(budget_words=64 * 64 - 1)
        info = BlockInfo(m=64, n=64)
        assert not cache.should_store(info)
        block = cache.get_or_compute(("t", 1), lambda: np.ones(9), info)
        assert block.sum() == 9
        assert not cache.contains(("t", 1))


class TestNamespaces:
    def test_prefix_accounting_and_drop(self):
        cache = BlockCache()
        cache.put((1, "leaf", 0), np.zeros(16))
        cache.put((1, "sib", 3), np.zeros(8))
        cache.put((2, "leaf", 0), np.zeros(4))
        assert cache.words_of_prefix(1) == 24
        assert cache.words_of_prefix(2) == 4
        cache.drop_prefix(1)
        assert cache.words_of_prefix(1) == 0
        assert cache.words == 4

    def test_hmatrix_releases_namespace_on_gc(self):
        cache = BlockCache()
        X = RNG.standard_normal((120, 3))
        h = build_hmatrix(
            X,
            GaussianKernel(bandwidth=1.5),
            tree_config=TreeConfig(leaf_size=30, seed=0),
            skeleton_config=SkeletonConfig(
                tau=1e-6, max_rank=24, num_samples=64, num_neighbors=4, seed=1
            ),
            cache=cache,
        )
        for leaf in h.tree.leaves():
            h.leaf_block(leaf)
        ns = h._ns
        assert cache.words_of_prefix(ns) > 0
        del h
        gc.collect()
        assert cache.words_of_prefix(ns) == 0

    def test_configure_default_cache_adopted(self, restore_default_cache):
        cache = configure_default_cache(budget_words=1 << 20)
        assert default_cache() is cache
        h = build_hmatrix(
            RNG.standard_normal((60, 2)),
            GaussianKernel(bandwidth=1.0),
            tree_config=TreeConfig(leaf_size=30, seed=0),
            skeleton_config=SkeletonConfig(
                tau=1e-4, max_rank=16, num_samples=40, num_neighbors=0, seed=1
            ),
        )
        assert h.cache is cache


class TestConcurrentFactorization:
    """ISSUE satellite: the stress test for the budgeted cache."""

    def _problem(self, cache):
        X = np.random.default_rng(5).standard_normal((512, 3))
        return build_hmatrix(
            X,
            GaussianKernel(bandwidth=1.2),
            tree_config=TreeConfig(leaf_size=32, seed=2),
            skeleton_config=SkeletonConfig(
                tau=1e-8, max_rank=48, num_samples=128, num_neighbors=8, seed=3
            ),
            cache=cache,
        )

    def test_budget_respected_and_matches_serial(self):
        budget = 6000  # a handful of 32x32 leaf blocks: forces churn
        cache = BlockCache(budget_words=budget)
        h = self._problem(cache)
        fact = execute_factorization(h, 0.4, n_workers=4)
        assert cache.stats().peak_words <= budget  # exact high-water mark

        serial_cache = BlockCache()  # unbounded, single-threaded reference
        h_ref = self._problem(serial_cache)
        ref = factorize(h_ref, 0.4, SolverConfig())

        u = np.random.default_rng(6).standard_normal((512, 4))
        w = fact.solve(u)
        w_ref = ref.solve(u)
        scale = np.abs(w_ref).max()
        assert np.abs(w - w_ref).max() < 1e-12 * max(1.0, scale)
        assert fact.residual(u[:, 0], w[:, 0]) < 1e-10

    def test_concurrent_fills_share_one_block(self):
        cache = BlockCache()
        h = self._problem(cache)
        leaf = h.tree.leaves()[0]
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            blocks = list(pool.map(lambda _: h.leaf_block(leaf), range(16)))
        assert all(b is blocks[0] for b in blocks)
