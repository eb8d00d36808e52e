"""Level-synchronous batched filtering over the packed R-tree.

The scalar filters in :mod:`repro.spatial.rtree` walk one query at a time
down the tree with a Python stack.  This module traverses a whole workload
of window/point queries at once, exploiting the structure-of-arrays layout
the tree was designed for: the live frontier is a flat array of
``(query, node)`` pairs, and each tree level is expanded with one NumPy
broadcast of every frontier node's children against its query's window.
Point queries ride the same code path as degenerate windows
``(px, py, px, py)`` — the comparisons are term-for-term the scalar
``point_filter`` test, so the matched sets are identical.

Exactness contract (the batched planner depends on it):

* the *set* of visited nodes and matched entries per query equals the
  scalar traversal's, because each (node, window) test is the same four
  float comparisons;
* the *order* of visited nodes per query equals the scalar DFS preorder.
  Level-synchronous expansion produces BFS order, so visited nodes are
  re-sorted by ``(entry-span start, -level)`` — span starts nest (an
  ancestor shares its first child's span start and has strictly higher
  level; disjoint subtrees have disjoint spans in traversal order), which
  makes that sort key exactly preorder;
* candidates per query are ordered by packed entry position, which is the
  scalar DFS leaf-scan order (leaves are visited left to right).

Everything returned is CSR-shaped: concatenated arrays plus per-query
offsets, ready for bulk refinement and trace assembly without per-query
Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spatial.rtree import PackedRTree

__all__ = ["BatchFilterResult", "batch_filter"]


@dataclass(frozen=True)
class BatchFilterResult:
    """Per-query traversal output in CSR form (query-major, offsets aligned)."""

    #: Visited node ids in scalar DFS preorder, all queries concatenated.
    visited: np.ndarray
    #: ``(n_queries + 1,)`` offsets into :attr:`visited`.
    visited_offsets: np.ndarray
    #: Matched entry positions (packed order, ascending per query).
    cand_positions: np.ndarray
    #: Matched segment ids, aligned with :attr:`cand_positions`.
    cand_ids: np.ndarray
    #: ``(n_queries + 1,)`` offsets into the candidate arrays.
    cand_offsets: np.ndarray
    #: Per-query MBR-test tallies (one per child of every visited node).
    mbr_tests: np.ndarray

    @property
    def n_queries(self) -> int:
        """Number of queries this batch covered."""
        return len(self.visited_offsets) - 1

    def nodes_of(self, i: int) -> np.ndarray:
        """Query ``i``'s visited nodes in DFS preorder."""
        return self.visited[self.visited_offsets[i] : self.visited_offsets[i + 1]]

    def candidates_of(self, i: int) -> np.ndarray:
        """Query ``i``'s candidate segment ids in scalar filter order."""
        return self.cand_ids[self.cand_offsets[i] : self.cand_offsets[i + 1]]


def _csr_offsets(group: np.ndarray, n_groups: int) -> np.ndarray:
    """``(n_groups + 1,)`` offsets of sorted group labels."""
    counts = np.bincount(group, minlength=n_groups) if group.size else np.zeros(
        n_groups, dtype=np.int64
    )
    offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def batch_filter(
    tree: PackedRTree,
    qxmin: np.ndarray,
    qymin: np.ndarray,
    qxmax: np.ndarray,
    qymax: np.ndarray,
) -> BatchFilterResult:
    """Filter ``n`` windows against the tree in one level-synchronous sweep.

    A point query is passed as the degenerate window ``(px, py, px, py)``:
    ``node_xmin <= qxmax`` then reads ``node_xmin <= px`` and so on — the
    exact comparisons of ``point_filter``.

    ``tree`` is any MBR source: boxes are read only through its
    ``node_mbrs``/``entry_mbrs`` gathers, so a
    :class:`~repro.core.shardstore.ShardStore` (which serves them from
    lazily loaded shards) traverses bit-identically to its packed tree.
    """
    qxmin = np.asarray(qxmin, dtype=np.float64)
    qymin = np.asarray(qymin, dtype=np.float64)
    qxmax = np.asarray(qxmax, dtype=np.float64)
    qymax = np.asarray(qymax, dtype=np.float64)
    nq = len(qxmin)
    empty_i64 = np.empty(0, dtype=np.int64)
    if nq == 0:
        z = np.zeros(1, dtype=np.int64)
        return BatchFilterResult(
            visited=empty_i64, visited_offsets=z,
            cand_positions=empty_i64, cand_ids=empty_i64, cand_offsets=z,
            mbr_tests=empty_i64,
        )

    # Frontier: (query, node) pairs, one uniform tree level at a time.
    fq = np.arange(nq, dtype=np.int64)
    fn = np.full(nq, tree.root, dtype=np.int64)
    vq_parts = [fq]
    vn_parts = [fn]
    cand_q = empty_i64
    cand_pos = empty_i64
    while fn.size:
        counts = tree.node_child_count[fn].astype(np.int64)
        starts = tree.node_child_start[fn].astype(np.int64)
        total = int(counts.sum())
        run_starts = np.cumsum(counts) - counts
        child = np.repeat(starts - run_starts, counts) + np.arange(total, dtype=np.int64)
        cq = np.repeat(fq, counts)
        leaf_frontier = tree.node_level[fn[0]] == 0
        # Leaf children are packed entry positions; others are node ids.
        x0, y0, x1, y1 = (
            tree.entry_mbrs(child) if leaf_frontier else tree.node_mbrs(child)
        )
        hit = (
            (x0 <= qxmax[cq])
            & (x1 >= qxmin[cq])
            & (y0 <= qymax[cq])
            & (y1 >= qymin[cq])
        )
        if leaf_frontier:
            cand_q = cq[hit]
            cand_pos = child[hit]
            break
        fq = cq[hit]
        fn = child[hit]
        vq_parts.append(fq)
        vn_parts.append(fn)

    vq = np.concatenate(vq_parts)
    vn = np.concatenate(vn_parts)
    mbr_tests = np.bincount(
        vq, weights=tree.node_child_count[vn], minlength=nq
    ).astype(np.int64)

    # BFS -> DFS preorder: (query, span start, -level).
    spans = tree.entry_span_start()
    order = np.lexsort((-tree.node_level[vn].astype(np.int64), spans[vn], vq))
    visited = vn[order]
    visited_offsets = _csr_offsets(vq, nq)

    order = np.lexsort((cand_pos, cand_q))
    cand_q = cand_q[order]
    cand_pos = cand_pos[order]
    return BatchFilterResult(
        visited=visited,
        visited_offsets=visited_offsets,
        cand_positions=cand_pos,
        cand_ids=tree.entry_ids[cand_pos],
        cand_offsets=_csr_offsets(cand_q, nq),
        mbr_tests=mbr_tests,
    )
