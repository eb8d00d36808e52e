"""Bounded-residency Hilbert key-range shard store with plan-time pruning.

The service's master index (:class:`~repro.spatial.rtree.PackedRTree`) is
built over the whole dataset; for out-of-core operation the *working set*
must be far smaller.  This module splits the packed entry order into
contiguous Hilbert key-range shards (equi-count cuts over the bulk sort
keys, snapped to ``capacity**2`` so every leaf and every level-1 subtree
belongs to exactly one shard) and materializes each shard's data lazily —
its per-entry MBR columns and leaf-node MBRs, recomputed from the dataset
columns with the exact reduceat grouping of the bulk load, so they are
bit-identical to the monolithic tree's — behind a byte-budgeted LRU.

What stays resident unconditionally is only the *spine*: the internal-node
directory (levels >= 1 MBRs, child offsets, levels, the entry-id
permutation and the sorted keys).  Leaf-node MBR rows of the spine copy
are poisoned to NaN, so any traversal that forgets to route a leaf-level
read through a shard fails every MBR test and is caught by the
differential oracles rather than silently reading monolithic state.

The store is an MBR *source*, not a second traversal.  It serves the two
gathers every batched traversal reads boxes through — ``node_mbrs``
(leaf-node ids from their owning shard, deeper ids from the spine) and
``entry_mbrs`` (from the owning shard) — so
:func:`repro.spatial.batchtraverse.batch_filter` and
:func:`repro.spatial.batchnn.sequential_nearest` walk the store exactly as
they walk the packed tree: same visited nodes, candidates, tallies and
visit/refine logs, bit for bit.  The store adds only window admission.

Shards whose subtrees survive no MBR test are never materialized, never
visited, never charged — that is the plan-time pruning the ledger's
``shards_pruned`` metric reports.  The window→key-range decomposition
(:mod:`repro.spatial.shard`) bounds each query's shard reach *before*
traversal: residency admission rejects (or, with ``on_overflow="spill"``,
LRU-spills) queries whose decomposed ranges overlap more shard bytes than
the budget holds.  Gathers run shard-at-a-time, so the hard concurrency
requirement is a single resident shard regardless of batch shape.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.spatial.batchnn import BatchNNResult, sequential_nearest
from repro.spatial.batchtraverse import BatchFilterResult, batch_filter
from repro.spatial.hilbert import DEFAULT_ORDER, hilbert_sort_keys
from repro.spatial.rtree import PackedRTree
from repro.spatial.shard import (
    DEFAULT_PRUNE_ORDER,
    equi_count_boundaries,
    ranges_overlap_shards,
    window_shard_ranges,
)

__all__ = [
    "ShardConfig",
    "ShardResidencyError",
    "ShardStore",
    "ShardRegion",
    "materialize_entry_range",
]

#: Residency-overflow behaviors: fail fast, or let the LRU spill.
OVERFLOW_MODES = ("error", "spill")


class ShardResidencyError(RuntimeError):
    """A query's key ranges demand more shard bytes than the budget holds.

    Raised at admission (before any traversal work) when
    ``on_overflow="error"``: serving the query would force the residency
    LRU to thrash through more shards than fit concurrently.  The explicit
    fallback is ``ShardConfig(on_overflow="spill")``, which serves the
    query anyway — bit-identical answers, shard-at-a-time residency — at
    the cost of reload churn the ledger's ``shard_evictions`` records.
    """

    def __init__(self, n_shards: int, needed_bytes: int, budget_bytes: int) -> None:
        self.n_shards = n_shards
        self.needed_bytes = needed_bytes
        self.budget_bytes = budget_bytes
        super().__init__(
            f"query key ranges overlap {n_shards} shards "
            f"({needed_bytes} bytes) but the residency budget is "
            f"{budget_bytes} bytes; raise budget_bytes, lower n_shards, or "
            f"set ShardConfig(on_overflow='spill') to serve it anyway"
        )


@dataclass(frozen=True)
class ShardConfig:
    """Validated keyword config for :class:`ShardStore`.

    ``n_shards`` is the target equi-count shard count (the realized count
    can be lower on small datasets — cuts snap to the packing alignment);
    ``budget_bytes`` bounds resident shard bytes (``None`` = unbounded);
    ``on_overflow`` picks the admission behavior when one query's key
    ranges exceed the budget; ``prune_order`` is the Hilbert order of the
    window→key-range decomposition used for admission and reporting.
    """

    n_shards: int = 16
    budget_bytes: Optional[int] = None
    on_overflow: str = "error"
    prune_order: int = DEFAULT_PRUNE_ORDER

    def __post_init__(self) -> None:
        if not isinstance(self.n_shards, int) or self.n_shards < 1:
            raise ValueError(
                f"n_shards must be an int >= 1, got {self.n_shards!r}"
            )
        if self.budget_bytes is not None and (
            not isinstance(self.budget_bytes, int) or self.budget_bytes < 1
        ):
            raise ValueError(
                f"budget_bytes must be an int >= 1 or None, got "
                f"{self.budget_bytes!r}"
            )
        if self.on_overflow not in OVERFLOW_MODES:
            raise ValueError(
                f"on_overflow must be one of {OVERFLOW_MODES}, got "
                f"{self.on_overflow!r}"
            )
        if not isinstance(self.prune_order, int) or not (
            1 <= self.prune_order <= 31
        ):
            raise ValueError(
                f"prune_order must be an int in [1, 31], got "
                f"{self.prune_order!r}"
            )


@dataclass
class _Shard:
    """One materialized shard: entry MBR columns + its leaf-node MBRs."""

    sid: int
    entry_lo: int
    entry_hi: int
    leaf_lo: int
    leaf_hi: int
    entry_xmin: np.ndarray
    entry_ymin: np.ndarray
    entry_xmax: np.ndarray
    entry_ymax: np.ndarray
    leaf_xmin: np.ndarray
    leaf_ymin: np.ndarray
    leaf_xmax: np.ndarray
    leaf_ymax: np.ndarray
    nbytes: int


def _as_ids(ids) -> np.ndarray:
    """Gather ids as an int64 array; a contiguous ``slice`` is expanded."""
    if isinstance(ids, slice):
        return np.arange(ids.start, ids.stop, dtype=np.int64)
    return np.asarray(ids, dtype=np.int64)


def _columns(
    sh: _Shard, ids: np.ndarray, leaf: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One shard's entry (or leaf-node) MBR columns at global ``ids``."""
    if leaf:
        loc = ids - sh.leaf_lo
        return (
            sh.leaf_xmin[loc], sh.leaf_ymin[loc],
            sh.leaf_xmax[loc], sh.leaf_ymax[loc],
        )
    loc = ids - sh.entry_lo
    return (
        sh.entry_xmin[loc], sh.entry_ymin[loc],
        sh.entry_xmax[loc], sh.entry_ymax[loc],
    )


class ShardStore:
    """Lazy Hilbert key-range shards over one packed tree's entry order.

    Build with :meth:`from_tree`; attach to an environment as
    ``env.shard_store`` (the planners dispatch on that attribute).  The
    store is an *MBR source*: it mirrors the tree-facing surface the
    batched traversals read (the directory arrays, ``node_mbrs``,
    ``entry_mbrs``, ``node_bytes_array``, ``entry_span_start``,
    ``entry_ids``) while holding only the internal spine plus a bounded
    LRU of materialized shards.
    """

    def __init__(
        self,
        tree: PackedRTree,
        config: ShardConfig,
        hilbert_order: int = DEFAULT_ORDER,
    ) -> None:
        if not isinstance(config, ShardConfig):
            raise TypeError(
                f"config must be a ShardConfig, got {type(config).__name__}"
            )
        self.config = config
        self.dataset = tree.dataset
        self.costs = tree.costs
        self.node_capacity = int(tree.node_capacity)
        self.root = tree.root
        self.node_count = tree.node_count
        self.n_entries = int(tree.entry_ids.size)
        self.n_leaves = int(np.count_nonzero(tree.node_level == 0))
        # Directory (integer structure): shared with the tree, immutable.
        self.entry_ids = tree.entry_ids
        self.node_level = tree.node_level
        self.node_child_start = tree.node_child_start
        self.node_child_count = tree.node_child_count
        self._span_start = tree.entry_span_start()
        # Spine MBRs: copies with the leaf rows poisoned — a leaf-level
        # read that bypasses shard materialization fails every MBR test.
        self.spine_xmin = tree.node_xmin.copy()
        self.spine_ymin = tree.node_ymin.copy()
        self.spine_xmax = tree.node_xmax.copy()
        self.spine_ymax = tree.node_ymax.copy()
        leaf_rows = slice(0, self.n_leaves)
        self.spine_xmin[leaf_rows] = np.nan
        self.spine_ymin[leaf_rows] = np.nan
        self.spine_xmax[leaf_rows] = np.nan
        self.spine_ymax[leaf_rows] = np.nan

        # Shard boundaries: equi-count cuts snapped to capacity**2 entries,
        # so each leaf and each level-1 subtree lives in exactly one shard.
        self.hilbert_order = hilbert_order
        self.extent = self.dataset.extent
        cx, cy = self.dataset.centers()
        self.keys_sorted = hilbert_sort_keys(
            cx, cy, self.extent, order=hilbert_order
        )[self.entry_ids]
        align = self.node_capacity * self.node_capacity
        self.bounds = equi_count_boundaries(
            self.n_entries, config.n_shards, align
        )
        # Interior cuts are capacity-aligned so floor division is exact;
        # the final boundary covers the (possibly partial) last leaf.
        self.leaf_bounds = self.bounds // self.node_capacity
        self.leaf_bounds[-1] = self.n_leaves
        # Python-list twins of the boundary arrays: the gathers' hot path
        # maps only a range's two endpoints to shards, where bisect beats
        # a vectorized searchsorted by an order of magnitude.
        self._bounds_list = self.bounds.tolist()
        self._leaf_bounds_list = self.leaf_bounds.tolist()
        self.shard_key_lo = self.keys_sorted[self.bounds[:-1]]
        self.shard_key_hi = self.keys_sorted[self.bounds[1:] - 1]

        self._shard_nbytes = np.array(
            [self._model_bytes(s) for s in range(self.n_shards)], dtype=np.int64
        )
        budget = config.budget_bytes
        if budget is not None and int(self._shard_nbytes.max()) > budget:
            raise ValueError(
                f"budget_bytes={budget} cannot hold the largest shard "
                f"({int(self._shard_nbytes.max())} bytes); raise the budget "
                f"or increase n_shards"
            )

        self._resident: "OrderedDict[int, _Shard]" = OrderedDict()
        self._resident_bytes = 0
        self._range_memo: Dict[tuple, np.ndarray] = {}
        # Per-planning-call stats window (drained by take_stats) plus
        # lifetime counters for service-level reports.
        self._win_touched: set = set()
        self._win_loads = 0
        self._win_evictions = 0
        self._win_spills = 0
        self._life_touched: set = set()
        self._life_loads = 0
        self._life_evictions = 0
        self._life_spills = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_tree(
        cls,
        tree: PackedRTree,
        config: ShardConfig,
        hilbert_order: int = DEFAULT_ORDER,
    ) -> "ShardStore":
        """The store over ``tree``'s packed entry order (see class docs)."""
        return cls(tree, config, hilbert_order)

    @property
    def n_shards(self) -> int:
        """Realized shard count (may be below ``config.n_shards``)."""
        return len(self.bounds) - 1

    def shard_bytes(self, sid: int) -> int:
        """Model bytes of one shard (segment records + leaf-level index)."""
        return int(self._shard_nbytes[sid])

    def _model_bytes(self, sid: int) -> int:
        n_e = int(self.bounds[sid + 1] - self.bounds[sid])
        n_l = int(self.leaf_bounds[sid + 1] - self.leaf_bounds[sid])
        return (
            n_e * self.costs.segment_record_bytes
            + n_e * self.costs.index_entry_bytes
            + n_l * self.costs.index_node_header_bytes
        )

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    def shard_of_entries(self, positions: np.ndarray) -> np.ndarray:
        """Owning shard id of each packed entry position."""
        return (
            np.searchsorted(self.bounds, positions, side="right") - 1
        ).astype(np.int64)

    def shard_of_leaves(self, leaf_ids: np.ndarray) -> np.ndarray:
        """Owning shard id of each leaf node id."""
        return (
            np.searchsorted(self.leaf_bounds, leaf_ids, side="right") - 1
        ).astype(np.int64)

    def _materialize(self, sid: int) -> _Shard:
        """The shard, loading it (and LRU-evicting past budget) if needed."""
        self._win_touched.add(sid)
        self._life_touched.add(sid)
        sh = self._resident.get(sid)
        if sh is not None:
            self._resident.move_to_end(sid)
            return sh
        lo = int(self.bounds[sid])
        hi = int(self.bounds[sid + 1])
        ids = self.entry_ids[lo:hi]
        ds = self.dataset
        # Same operands, same order as the bulk load: the min/max pairs
        # and the cap-aligned reduceat groups reproduce the monolithic
        # entry and leaf MBRs bit for bit.
        ex1 = ds.x1[ids]
        ey1 = ds.y1[ids]
        ex2 = ds.x2[ids]
        ey2 = ds.y2[ids]
        entry_xmin = np.minimum(ex1, ex2)
        entry_xmax = np.maximum(ex1, ex2)
        entry_ymin = np.minimum(ey1, ey2)
        entry_ymax = np.maximum(ey1, ey2)
        starts = np.arange(0, hi - lo, self.node_capacity)
        sh = _Shard(
            sid=sid,
            entry_lo=lo,
            entry_hi=hi,
            leaf_lo=int(self.leaf_bounds[sid]),
            leaf_hi=int(self.leaf_bounds[sid + 1]),
            entry_xmin=entry_xmin,
            entry_ymin=entry_ymin,
            entry_xmax=entry_xmax,
            entry_ymax=entry_ymax,
            leaf_xmin=np.minimum.reduceat(entry_xmin, starts),
            leaf_ymin=np.minimum.reduceat(entry_ymin, starts),
            leaf_xmax=np.maximum.reduceat(entry_xmax, starts),
            leaf_ymax=np.maximum.reduceat(entry_ymax, starts),
            nbytes=self.shard_bytes(sid),
        )
        self._resident[sid] = sh
        self._resident_bytes += sh.nbytes
        self._win_loads += 1
        self._life_loads += 1
        budget = self.config.budget_bytes
        if budget is not None:
            while self._resident_bytes > budget and len(self._resident) > 1:
                _, old = self._resident.popitem(last=False)
                self._resident_bytes -= old.nbytes
                self._win_evictions += 1
                self._life_evictions += 1
        return sh

    def query_shards(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> np.ndarray:
        """Shards whose key span meets the window's decomposed key ranges.

        The plan-time shard bound: a superset of the shards the exact
        MBR-driven traversal can reach through *key-local* subtrees.
        Memoized per window — the locality workloads repeat windows.
        """
        key = (xmin, ymin, xmax, ymax)
        hit = self._range_memo.get(key)
        if hit is None:
            ranges = window_shard_ranges(
                self.extent, self.hilbert_order,
                xmin, ymin, xmax, ymax,
                self.config.prune_order,
            )
            hit = ranges_overlap_shards(
                ranges, self.shard_key_lo, self.shard_key_hi
            )
            if len(self._range_memo) >= 8192:
                self._range_memo.clear()
            self._range_memo[key] = hit
        return hit

    def _admit_windows(
        self,
        qxmin: np.ndarray,
        qymin: np.ndarray,
        qxmax: np.ndarray,
        qymax: np.ndarray,
    ) -> None:
        """Residency admission: per query, do its shard bytes fit the budget?

        ``on_overflow="error"`` raises :class:`ShardResidencyError` before
        any traversal work; ``"spill"`` records the overflow and proceeds
        (gathers run shard-at-a-time, so the query is still served with at
        most one shard resident beyond the LRU's budget line).
        """
        budget = self.config.budget_bytes
        if budget is None:
            return
        for i in range(qxmin.size):
            shards = self.query_shards(
                float(qxmin[i]), float(qymin[i]),
                float(qxmax[i]), float(qymax[i]),
            )
            needed = int(self._shard_nbytes[shards].sum())
            if needed > budget:
                if self.config.on_overflow == "error":
                    raise ShardResidencyError(int(shards.size), needed, budget)
                self._win_spills += 1
                self._life_spills += 1

    # ------------------------------------------------------------------
    # Tree-facing surface (what the planners consume)
    # ------------------------------------------------------------------
    def node_bytes_array(self) -> np.ndarray:
        """Per-node stored sizes; equals the tree's (directory arithmetic)."""
        sizes = getattr(self, "_node_bytes_array", None)
        if sizes is None:
            sizes = (
                self.costs.index_node_header_bytes
                + self.node_child_count.astype(np.int64)
                * self.costs.index_entry_bytes
            )
            self._node_bytes_array = sizes
        return sizes

    def entry_span_start(self) -> np.ndarray:
        """Per-node first packed entry position (the tree's, shared)."""
        return self._span_start

    def _gather(
        self, ids: np.ndarray, leaf: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Entry (or, with ``leaf``, leaf-node) MBR columns for ``ids``.

        Identical values to indexing the tree's columns (shards recompute
        the same floats), aligned with ``ids``, but routed through
        residency: each owning shard is materialized and gathered from
        before the next one is loaded.
        """
        ids = _as_ids(ids)
        if not ids.size:
            e = np.empty(0, dtype=np.float64)
            return e, e.copy(), e.copy(), e.copy()
        # A single-shard gather (the common case under locality) is
        # decided from the two endpoint ids alone: index that shard's
        # columns directly, no per-id shard map, no scatter.
        bounds = self._leaf_bounds_list if leaf else self._bounds_list
        lo_sid = bisect_right(bounds, int(ids.min())) - 1
        hi_sid = bisect_right(bounds, int(ids.max())) - 1
        if lo_sid == hi_sid:
            return _columns(self._materialize(lo_sid), ids, leaf)
        sids = self.shard_of_leaves(ids) if leaf else self.shard_of_entries(ids)
        out = tuple(np.empty(ids.size, dtype=np.float64) for _ in range(4))
        for sid in np.unique(sids).tolist():
            m = sids == sid
            cols = _columns(self._materialize(sid), ids[m], leaf)
            for o, col in zip(out, cols):
                o[m] = col
        return out

    def entry_mbrs(
        self, positions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Entry MBR columns gathered for packed ``positions``, shard-at-a-time."""
        return self._gather(positions, leaf=False)

    def _leaf_mbrs(
        self, leaf_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Leaf-node MBR columns gathered for ``leaf_ids``, shard-at-a-time."""
        return self._gather(leaf_ids, leaf=True)

    def node_mbrs(
        self, ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Node MBR columns for node ``ids``: leaves from their shards.

        Leaf nodes (ids below ``n_leaves``) live in the owning shards — the
        spine's leaf rows are NaN-poisoned on purpose — and deeper nodes
        in the always-resident spine.
        """
        ids = _as_ids(ids)
        leaf = ids < self.n_leaves
        if leaf.all():
            return self._leaf_mbrs(ids)
        out = (
            self.spine_xmin[ids],
            self.spine_ymin[ids],
            self.spine_xmax[ids],
            self.spine_ymax[ids],
        )
        if leaf.any():
            for o, col in zip(out, self._leaf_mbrs(ids[leaf])):
                o[leaf] = col
        return out

    # ------------------------------------------------------------------
    # Traversal: admission, then the shared batched engines
    # ------------------------------------------------------------------
    def batch_filter(
        self,
        qxmin: np.ndarray,
        qymin: np.ndarray,
        qxmax: np.ndarray,
        qymax: np.ndarray,
    ) -> BatchFilterResult:
        """Admit the windows, then filter them over this store's gathers.

        :func:`repro.spatial.batchtraverse.batch_filter` itself, reading
        boxes through :meth:`node_mbrs`/:meth:`entry_mbrs` — bit-for-bit
        the unsharded traversal's result, while untouched shards stay
        unmaterialized.
        """
        windows = [
            np.asarray(a, dtype=np.float64) for a in (qxmin, qymin, qxmax, qymax)
        ]
        self._admit_windows(*windows)
        return batch_filter(self, *windows)

    def batch_nearest(
        self, px: np.ndarray, py: np.ndarray, ks: np.ndarray
    ) -> BatchNNResult:
        """Residency-bounded best-first search, scalar-identical per query.

        :func:`repro.spatial.batchnn.sequential_nearest` over this store:
        one node expansion at a time, so at most one shard must be
        resident.  An NN search's reach is adaptive, so admission does not
        pre-bound it — each touched shard is loaded in turn and the LRU
        spills past budget.
        """
        return sequential_nearest(self, px, py, ks)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def take_stats(self) -> Dict[str, int]:
        """Pruning/residency stats since the last take (one planning call).

        Drains the per-call window: ``shards_pruned`` counts shards no
        gather touched during the window — never materialized, never
        visited, never charged.
        """
        touched = len(self._win_touched)
        out = {
            "shards_total": self.n_shards,
            "shards_touched": touched,
            "shards_pruned": self.n_shards - touched,
            "shards_resident": len(self._resident),
            "shard_loads": self._win_loads,
            "shard_evictions": self._win_evictions,
            "shard_spills": self._win_spills,
        }
        self._win_touched.clear()
        self._win_loads = 0
        self._win_evictions = 0
        self._win_spills = 0
        return out

    def stats_dict(self) -> Dict[str, int]:
        """Lifetime stats (service-level reports; does not drain the window)."""
        touched = len(self._life_touched)
        return {
            "shards_total": self.n_shards,
            "shards_touched": touched,
            "shards_pruned": self.n_shards - touched,
            "shards_resident": len(self._resident),
            "shard_loads": self._life_loads,
            "shard_evictions": self._life_evictions,
            "shard_spills": self._life_spills,
            "resident_bytes": self._resident_bytes,
            "budget_bytes": self.config.budget_bytes or 0,
        }


# ----------------------------------------------------------------------
# Entry-range materialization (the insufficient-memory client's shard)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardRegion:
    """One contiguous packed-entry range materialized as a standalone store."""

    #: Master segment ids of the range, in packed (Hilbert) order.
    global_ids: np.ndarray
    #: The range's segments as a dataset (extent re-derived).
    dataset: "object"
    #: A packed R-tree bulk-loaded over just this range.
    tree: PackedRTree


def materialize_entry_range(
    tree: PackedRTree, entry_lo: int, entry_hi: int, name: Optional[str] = None
) -> ShardRegion:
    """Materialize packed positions ``[entry_lo, entry_hi)`` as a shard.

    This is the shard store's loading step generalized to an arbitrary
    contiguous key range: subset the dataset by the range's (Hilbert-
    ordered) master ids and bulk-load a packed tree over it.  The
    insufficient-memory client (:mod:`repro.core.clientcache`) caches
    exactly one such region — its memory budget *is* one dynamically-
    bounded shard — so fig10's shipped subsets are ShardRegions.
    """
    if not (0 <= entry_lo < entry_hi <= tree.entry_ids.size):
        raise ValueError(
            f"entry range [{entry_lo}, {entry_hi}) outside "
            f"[0, {tree.entry_ids.size})"
        )
    ids = tree.entry_ids[entry_lo:entry_hi].copy()
    sub = tree.dataset.subset(
        ids, name=name if name is not None else f"{tree.dataset.name}-shard"
    )
    sub_tree = PackedRTree.build(sub, node_capacity=tree.node_capacity)
    return ShardRegion(global_ids=ids, dataset=sub, tree=sub_tree)
