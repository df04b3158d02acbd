"""Cross-cutting performance layer: block caching and norm tables.

The paper's single-node study (Table IV) shows that the dominant
time/storage trade-off is whether kernel blocks are *stored* (GEMV per
product, O(m n) words) or *recomputed* (GSKS tiles, O(1) words).  The
seed reproduction made that choice statically per block kind; this
package makes it adaptive and central:

* :class:`BlockCache` — a process-wide, budgeted, LRU block store with
  striped per-key fill locks and a perfmodel-driven store-vs-recompute
  policy.  All dense kernel blocks of :class:`~repro.hmatrix.HMatrix`
  (leaf diagonal blocks, sibling V-blocks, frontier rows, reduced-system
  pair blocks) live here.
* :class:`NormTable` — tree-wide precomputed squared norms, threaded
  through every GSKS call site so the rank-d distance update never
  recomputes ``||x||^2`` rows.
* :mod:`~repro.perf.levelbatch` — level-synchronous shape-batched
  numerics: stacked kernel evaluation, batched LU/solve, and the
  roofline-derived batching threshold (see docs/PERFORMANCE.md).
"""

from repro.perf.blockcache import (
    BlockCache,
    BlockInfo,
    CacheStats,
    configure_default_cache,
    default_cache,
    set_default_cache,
)
from repro.perf.levelbatch import BatchPolicy
from repro.perf.norms import NormTable

__all__ = [
    "BatchPolicy",
    "BlockCache",
    "BlockInfo",
    "CacheStats",
    "NormTable",
    "configure_default_cache",
    "default_cache",
    "set_default_cache",
]
