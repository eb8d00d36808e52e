"""Set-associative LRU cache simulator (the client D-cache model).

The paper's client has an 8 KB 4-way set-associative data cache with 32-byte
lines and a 100-cycle DRAM penalty; cache behaviour is what made the original
study's "fully at the client" executions memory-bound on large working sets.
The cost model replays each query phase's data-access trace (recorded by
:class:`repro.sim.trace.OpCounter`) through this simulator, so miss counts —
and therefore stall cycles and memory energy — are genuinely data-dependent:
a Hilbert-packed traversal touches contiguous node ranges and misses less
than an unsorted packing of the same tree, which the packing ablation bench
demonstrates.

The simulator is deliberately small: physically indexed, true-LRU,
write-allocate with no write-back accounting (the workload is read-dominated
index traversal), and addresses are the synthetic region-based layout built
by :mod:`repro.sim.cpu`.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = ["CacheSim", "BatchedLRU"]

#: Generations with fewer concurrent sets than this run scalar (see
#: :meth:`BatchedLRU.run`): below it, a vectorized step costs more in fixed
#: NumPy overhead than a short Python loop over the same accesses.
_SCALAR_TAIL_THRESHOLD = 48

#: A closed-form stream with at least this many line accesses replays as its
#: own shard on the worker pool (see :meth:`BatchedLRU._run_closed_form`);
#: batches totalling under twice this replay as one universe per class,
#: where thread hand-off would cost more than it overlaps.
_PARALLEL_MIN_ACCESSES = 50_000


class CacheSim:
    """A ``size_bytes`` set-associative cache with LRU replacement."""

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry parameters must be positive")
        if size_bytes % (assoc * line_bytes) != 0:
            raise ValueError(
                f"size {size_bytes} not divisible by assoc*line "
                f"({assoc}*{line_bytes})"
            )
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.n_sets = size_bytes // (assoc * line_bytes)
        # Per-set list of tags, most-recently-used last.
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Empty the cache and zero the counters."""
        self._sets = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def access_line(self, line_addr: int) -> bool:
        """Touch one cache line (by line-granular address); True on hit."""
        set_idx = line_addr % self.n_sets
        tag = line_addr // self.n_sets
        ways = self._sets[set_idx]
        try:
            ways.remove(tag)
        except ValueError:
            self.misses += 1
            if len(ways) >= self.assoc:
                ways.pop(0)  # evict LRU
            ways.append(tag)
            return False
        self.hits += 1
        ways.append(tag)  # move to MRU
        return True

    def access(self, addr: int, nbytes: int) -> Tuple[int, int]:
        """Touch ``nbytes`` starting at byte address ``addr``.

        Returns ``(hits, misses)`` for the lines spanned.  A zero-byte access
        is a no-op (returns ``(0, 0)``).
        """
        if nbytes <= 0:
            return (0, 0)
        first = addr // self.line_bytes
        last = (addr + nbytes - 1) // self.line_bytes
        h = m = 0
        for line in range(first, last + 1):
            if self.access_line(line):
                h += 1
            else:
                m += 1
        return (h, m)

    def run_trace(self, accesses: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
        """Replay ``(addr, nbytes)`` pairs; returns total ``(hits, misses)``."""
        h0, m0 = self.hits, self.misses
        for addr, nbytes in accesses:
            self.access(addr, nbytes)
        return (self.hits - h0, self.misses - m0)

    @property
    def accesses(self) -> int:
        """Total line touches so far."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of line touches that missed (0 when untouched)."""
        total = self.accesses
        return self.misses / total if total else 0.0


#: Reusable scratch buffers keyed by (site name, dtype): the replay's large
#: intermediates are allocated once and re-sliced on subsequent runs, so
#: steady-state replays skip the first-touch page faulting that dominates
#: fresh multi-megabyte allocations.  Per thread: concurrent replays (pool
#: workers running shards, or callers running their own :class:`BatchedLRU`
#: on separate threads) must never hand out the same buffer twice.
class _Scratch(threading.local):
    def __init__(self) -> None:
        self.bufs: dict = {}


_scratch = _Scratch()


def _buf(name: str, shape, dtype=np.int64) -> np.ndarray:
    """An uninitialized scratch array of ``shape``, reused across calls."""
    size = int(np.prod(shape))
    key = (name, np.dtype(dtype))
    buf = _scratch.bufs.get(key)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=dtype)
        _scratch.bufs[key] = buf
    return buf[:size].reshape(shape)


#: The shard worker pool, created on first sharded replay (never at import)
#: and dropped in forked children, whose copy has no worker threads.
_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()  # another thread may have held it


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _shard_pool() -> Optional[ThreadPoolExecutor]:
    """The worker pool, one thread per usable CPU; None with one CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity API on this platform
                workers = os.cpu_count() or 1
            if workers < 2:
                return None
            # Imported on first use: concurrent.futures pulls in logging,
            # which would add ~10 ms to every process's start-up.
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="lru-shard"
            )
        return _pool


def _run_shards(fn: Callable[[list], None], shards: List[list]) -> None:
    """``fn(shard)`` for every shard, on the worker pool when it can overlap.

    With one shard or one CPU the shards run in-line, in order.  Otherwise
    every future is waited on before the first failure (in submission order)
    is re-raised, so no worker is still writing when the caller sees it.
    """
    pool = _shard_pool() if len(shards) > 1 else None
    if pool is None:
        for shard in shards:
            fn(shard)
        return
    futures = [pool.submit(fn, shard) for shard in shards]
    errors = [f.exception() for f in futures]
    for err in errors:
        if err is not None:
            raise err


class _BlockRMQ:
    """O(1) vectorized range-minimum queries over a fixed int64 array.

    Classic block decomposition: per-block prefix/suffix minima answer a
    query's two partial blocks, a sparse table over whole-block minima
    answers the middle, and six small power-of-two window levels answer
    queries confined to one block.  Build cost is ~8 linear passes however
    long the longest query window is; the plain sparse table the replay
    used before paid one full pass per doubling of the window.
    """

    _B = 32  # block width; in-block levels cover windows up to this

    def __init__(self, values: np.ndarray) -> None:
        B = self._B
        m = values.size
        nb = (m + B - 1) // B
        mp = nb * B
        big = np.int64(np.iinfo(np.int64).max)
        levels = B.bit_length()  # windows 1..B need levels 0..levels-1
        S = _buf("rmq_small", (levels, mp))
        S[0, :m] = values
        S[0, m:] = big
        for k in range(1, levels):
            half = 1 << (k - 1)
            nk = mp - (1 << k) + 1
            np.minimum(S[k - 1, :nk], S[k - 1, half : half + nk], out=S[k, :nk])
        self._S = S
        blocks = S[0].reshape(nb, B)
        pre = _buf("rmq_pre", (nb, B))
        np.minimum.accumulate(blocks, axis=1, out=pre)
        suf = _buf("rmq_suf", (nb, B))
        np.minimum.accumulate(blocks[:, ::-1], axis=1, out=suf[:, ::-1])
        self._pre = pre.reshape(-1)
        self._suf = suf.reshape(-1)
        blevels = max(1, nb.bit_length())
        BT = _buf("rmq_blocks", (blevels, nb))
        BT[0] = pre[:, B - 1]
        for k in range(1, blevels):
            half = 1 << (k - 1)
            nk = nb - (1 << k) + 1
            if nk <= 0:
                break
            np.minimum(
                BT[k - 1, :nk], BT[k - 1, half : half + nk], out=BT[k, :nk]
            )
        self._BT = BT

    @staticmethod
    def _pow2(table: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Two overlapping power-of-two windows out of a 2D level table."""
        ln = hi - lo + 1
        k = np.frexp(ln.astype(np.float64))[1] - 1  # floor(log2(ln))
        w = np.left_shift(np.int64(1), k)
        return np.minimum(table[k, lo], table[k, hi - w + 1])

    def __call__(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Minimum over each inclusive ``[lo, hi]`` (element-wise, len >= 1)."""
        sh = self._B.bit_length() - 1
        res = np.empty(lo.size, dtype=np.int64)
        sameb = (lo >> sh) == (hi >> sh)
        if sameb.any():
            res[sameb] = self._pow2(self._S, lo[sameb], hi[sameb])
        crossb = ~sameb
        if crossb.any():
            left = lo[crossb]
            right = hi[crossb]
            r = np.minimum(self._suf[left], self._pre[right])
            b0 = (left >> sh) + 1
            b1 = (right >> sh) - 1
            mid = b0 <= b1
            if mid.any():
                r[mid] = np.minimum(
                    r[mid], self._pow2(self._BT, b0[mid], b1[mid])
                )
            res[crossb] = r
        return res


class BatchedLRU:
    """Exact vectorized replay of many independent LRU traces at once.

    The batched planner needs :class:`CacheSim`'s per-line hit/miss verdicts
    for every phase of every query in a workload — hundreds of thousands of
    ``access_line`` calls that dominate scalar planning time.  This class
    reproduces those verdicts (and the final cache state) bit for bit,
    replacing the per-access Python loop with a per-*generation* loop: each
    trace's cache sets become rows of one shared NumPy state matrix, and the
    k-th access to any given set across all traces is simulated in the same
    vectorized step.

    Usage: :meth:`add_stream` each line-granular trace (with its cache
    geometry and optional warm-start state), then :meth:`run` once, then read
    :meth:`hits` / :meth:`final_sets` per stream.  Streams never share state;
    each models its own freshly-seeded :class:`CacheSim`.

    Exactness hinges on three facts, each unit-tested against the scalar
    simulator:

    * true-LRU state is the MRU-ordered tag list per set, updated identically
      for hit (move to front) and miss (insert at front, drop overflow);
    * accesses to *different* sets commute, so scheduling by per-set sequence
      rank preserves every set's own access order while batching across sets
      (each step touches each set at most once — no lost updates under fancy
      indexing);
    * an access immediately repeating the previous tag in its set is a
      guaranteed hit that leaves the set unchanged, so such runs collapse to
      their first access before simulation (index traversals are chatty in
      exactly this way).

    Because streams never share sets, a large batch (associativity <= 4)
    also splits into shards of whole streams that :meth:`run` replays
    concurrently on a module-level thread pool sized to the CPUs this
    process may use; small batches, and any batch on one CPU, replay
    in-line.  Threads never leave :meth:`run`, and separate instances may
    run on separate threads.
    """

    def __init__(self) -> None:
        self._streams: List[dict] = []
        self._n_vsets = 0
        self._ran = False
        self._hits: Optional[np.ndarray] = None

    def add_stream(
        self,
        lines: np.ndarray,
        n_sets: int,
        assoc: int,
        seed_sets: Optional[List[List[int]]] = None,
    ) -> int:
        """Register one line-address trace with its cache geometry.

        ``lines`` is an int array of line-granular addresses in access order
        (the sequence :meth:`CacheSim.access_line` would see).  ``seed_sets``
        warm-starts the cache: per-set MRU-*last* tag lists, exactly the
        ``CacheSim._sets`` layout.  Returns the stream's handle.
        """
        if self._ran:
            raise RuntimeError("add_stream after run()")
        if n_sets <= 0 or assoc <= 0:
            raise ValueError("cache geometry parameters must be positive")
        if seed_sets is not None and len(seed_sets) != n_sets:
            raise ValueError(f"seed_sets must have {n_sets} entries")
        lines = np.asarray(lines)
        if lines.dtype != np.int32:
            lines = lines.astype(np.int64, copy=False)
            if lines.size and 0 <= int(lines.min()) and (
                int(lines.max()) <= np.iinfo(np.int32).max
            ):
                # Narrow early: every downstream derived array (set index,
                # tag, sort keys) inherits the width, halving memory traffic
                # on the replay hot path.
                lines = lines.astype(np.int32)
        self._streams.append(
            {
                "lines": lines,
                "n_sets": n_sets,
                "assoc": assoc,
                "offset": self._n_vsets,
                "seed": seed_sets,
            }
        )
        self._n_vsets += n_sets
        return len(self._streams) - 1

    def run(self) -> None:
        """Simulate every registered stream; verdicts become readable."""
        if self._ran:
            raise RuntimeError("run() called twice")
        self._ran = True
        if not self._streams:
            self._hits = np.zeros(0, dtype=bool)
            return
        if max(s["assoc"] for s in self._streams) <= 4:
            self._run_closed_form()
        else:
            self._run_generational()

    def _run_closed_form(self) -> None:
        """Hit verdicts from LRU stack distances — no sequential state at all.

        In the dup-collapsed per-set sequence, let ``pv(i)`` be the previous
        occurrence of access ``i``'s tag (same set).  The tag's LRU stack
        depth at access ``i`` is the number of *distinct* tags touched in the
        open interval ``(pv(i), i)`` — i.e. the count of ``j`` there with
        ``pv(j) <= pv(i)`` (first occurrences since ``pv(i)``) — and the
        access hits iff that depth is below the associativity.  Two facts
        close the formula: ``j = pv(i)+1`` satisfies ``pv(j) <= pv(i)``
        trivially (``pv(j) < j``), and so does ``j = pv(i)+2`` because in a
        dup-collapsed sequence adjacent tags differ, so ``pv(j) != j-1`` and
        hence ``pv(j) <= j-2 = pv(i)``.  Hence for assoc 2 the verdict
        is simply ``i - pv(i) <= 2``, and for assoc 3/4 only the count of
        small-``pv`` entries in ``[pv(i)+3, i-1]`` remains — answered with a
        block-decomposed range-minimum (assoc 3) or range-second-minimum
        (assoc 4) structure over ``pv``, all NumPy.  Warm-start seeds are
        replayed as synthetic prefix accesses (LRU to MRU order recreates
        the state); their verdicts are discarded.  Verified
        access-for-access against :class:`CacheSim` by the unit suite.

        Streams are partitioned by associativity regime (assoc <= 2 vs
        assoc 3/4) and each class replays in its own contiguous
        sub-universe: sets never cross streams, so the split is exact, and
        it removes the per-access regime gathers a mixed universe would
        need while keeping every class on its narrow-dtype fast path.

        Large batches split further, into shards of whole streams run
        concurrently by :func:`_run_shards` (NumPy's sorts and gathers
        release the GIL): each stream of at least
        ``_PARALLEL_MIN_ACCESSES`` accesses is its own shard, a class's
        remaining streams pool into one, and shards go largest first.  The
        same argument keeps it exact — every shard owns disjoint ``hits``
        slices and disjoint ``W`` rows.
        """
        max_assoc = max(s["assoc"] for s in self._streams)
        W = np.full((self._n_vsets, max_assoc), -1, dtype=np.int64)
        self._W = W
        pos = 0
        for s in self._streams:
            s["slice"] = slice(pos, pos + s["lines"].size)
            pos += s["lines"].size
        hits = np.zeros(pos, dtype=bool)
        self._hits = hits
        lo = [s for s in self._streams if s["assoc"] <= 2]
        hi = [s for s in self._streams if s["assoc"] >= 3]
        groups = [group for group in (lo, hi) if group]
        if pos < 2 * _PARALLEL_MIN_ACCESSES:
            for group in groups:
                self._closed_form_class(group, W, hits)
            return
        shards = []
        for group in groups:
            rest = []
            for s in group:
                if s["lines"].size >= _PARALLEL_MIN_ACCESSES:
                    shards.append([s])
                else:
                    rest.append(s)
            if rest:
                shards.append(rest)
        shards.sort(key=lambda sh: -sum(s["lines"].size for s in sh))
        _run_shards(lambda sh: self._closed_form_class(sh, W, hits), shards)

    @staticmethod
    def _argsort_key(key: np.ndarray, kmax: int) -> np.ndarray:
        """Stable argsort of a non-negative integer key, radix when it fits.

        NumPy's stable sort only takes the radix path for <= 16-bit dtypes;
        wider keys sort by LSD passes over 16-bit digits (stable sorts
        compose), several times faster than the int64 merge sort here.
        """
        if kmax < (1 << 16):
            return np.argsort(key.astype(np.uint16), kind="stable")
        if kmax < (1 << 32):
            o1 = np.argsort((key & 0xFFFF).astype(np.uint16), kind="stable")
            o2 = np.argsort(
                (key >> 16).astype(np.uint16)[o1], kind="stable"
            )
            return o1[o2]
        return np.argsort(key, kind="stable")

    def _closed_form_class(
        self, streams: List[dict], W: np.ndarray, hits: np.ndarray
    ) -> None:
        """Replay streams of one associativity class (see
        :meth:`_run_closed_form`); safe to run concurrently with other
        shards of the same batch."""
        nv = sum(s["n_sets"] for s in streams)
        row_map = np.empty(nv, dtype=np.int64)  # class row -> global W row
        assoc_row = np.empty(nv, dtype=np.int64)
        syn_vset_parts = []
        syn_tag_parts = []
        vset_parts = []
        tag_parts = []
        out_slices = []  # (class-local real range, global hits slice)
        off = 0
        pos = 0
        for s in streams:
            ns = s["n_sets"]
            row_map[off : off + ns] = np.arange(
                s["offset"], s["offset"] + ns, dtype=np.int64
            )
            assoc_row[off : off + ns] = s["assoc"]
            if s["seed"] is not None:
                lens = np.fromiter(
                    (len(ways) for ways in s["seed"]),
                    dtype=np.int64,
                    count=ns,
                )
                if lens.max(initial=0) > s["assoc"]:
                    raise ValueError("seed set exceeds associativity")
                if lens.any():
                    syn_vset_parts.append(
                        np.repeat(
                            np.arange(off, off + ns, dtype=np.int32), lens
                        )
                    )
                    stags = np.fromiter(
                        (t for ways in s["seed"] for t in ways),
                        dtype=np.int64,
                        count=int(lens.sum()),
                    )
                    if 0 <= int(stags.min()) and (
                        int(stags.max()) <= np.iinfo(np.int32).max
                    ):
                        stags = stags.astype(np.int32)
                    syn_tag_parts.append(stags)
            lines = s["lines"]
            if ns & (ns - 1) == 0:
                # Power-of-two set count: mask/shift instead of div/mod.
                vset_parts.append(
                    (off + (lines & (ns - 1))).astype(np.int32, copy=False)
                )
                tag_parts.append(lines >> (ns.bit_length() - 1))
            else:
                vset_parts.append(
                    (off + lines % ns).astype(np.int32, copy=False)
                )
                tag_parts.append(lines // ns)
            out_slices.append((pos, pos + lines.size, s["slice"]))
            pos += lines.size
            off += ns
        n_real = pos
        n_syn = sum(p.size for p in syn_vset_parts)
        all_parts_v = syn_vset_parts + vset_parts
        all_parts_t = syn_tag_parts + tag_parts
        n = n_syn + n_real
        if n == 0:
            return
        vset = _buf("cf_vset", n, np.int32)
        np.concatenate(all_parts_v, out=vset)
        tdt = np.result_type(*[p.dtype for p in all_parts_t])
        tag = _buf("cf_tag", n, tdt)
        np.concatenate(all_parts_t, out=tag)
        chits = _buf("cf_chits", n_real, bool)
        chits[:] = False

        # Stable sort by set: synthetic seed accesses were concatenated ahead
        # of every real trace, so per set they sort first, in LRU->MRU order.
        order = self._argsort_key(vset, nv - 1)
        sv = np.take(vset, order, out=_buf("cf_sv", n, np.int32))
        st = np.take(tag, order, out=_buf("cf_st", n, tdt))
        new_set = _buf("cf_newset", n, bool)
        new_set[0] = True
        np.not_equal(sv[1:], sv[:-1], out=new_set[1:])
        # Collapse immediate same-tag repeats: guaranteed hits, no state change.
        dup = _buf("cf_dup", n, bool)
        dup[0] = False
        np.equal(st[1:], st[:-1], out=dup[1:])
        dup[1:] &= ~new_set[1:]
        dup_sel = order[dup]
        if n_syn:
            chits[dup_sel[dup_sel >= n_syn] - n_syn] = True
        else:
            chits[dup_sel] = True
        keep = ~dup
        ko = order[keep]
        ksv = sv[keep]
        ktag = st[keep]
        m = ko.size

        knew = _buf("cf_knew", m, bool)
        knew[0] = True
        np.not_equal(ksv[1:], ksv[:-1], out=knew[1:])
        hit_c = _buf("cf_hitc", m, bool)
        hit_c[:] = False

        if int(assoc_row[0]) <= 2:
            # Stack depth is 0 at distance 1 (collapsed away) and 1 at
            # distance 2, so assoc 2 hits iff the set-major distance is
            # exactly 2 — a shifted compare, no (set, tag) sort needed: sets
            # are contiguous, so equal set at distance 2 puts all three
            # entries in one set, and the middle entry differs from both
            # neighbours after dup collapse.  Assoc 1 never hits here
            # (distance >= 2 after dup collapse).
            if m > 2:
                two = (
                    (ksv[2:] == ksv[:-2])
                    & (ktag[2:] == ktag[:-2])
                    & (assoc_row[ksv[2:]] >= 2)
                )
                hit_c[2:] = two
        elif m > 1:
            tmax = int(ktag.max()) + 1
            kmax = nv * tmax - 1
            if kmax <= np.iinfo(np.int32).max and ktag.dtype == np.int32:
                key = ksv * np.int32(tmax) + ktag
            else:
                key = ksv.astype(np.int64) * tmax + ktag
            o = self._argsort_key(key, kmax)
            sk = key[o]
            same = sk[1:] == sk[:-1]
            prev = o[:-1][same]
            cur = o[1:][same]
            d = cur - prev
            near = d <= 3
            hit_c[cur[near]] = True
            farq = ~near
            if farq.any():
                # enc encodes (pv, position) with pv the previous same-tag
                # position in the set (-1 for firsts): a range-min over enc
                # yields both the minimum pv and its argmin.
                enc = np.arange(m, dtype=np.int64)
                enc[cur] = (prev + 1) * m + cur
                fp = prev[farq]
                fq = cur[farq]
                rmq = _BlockRMQ(enc)
                m1 = rmq(fp + 3, fq - 1)
                val1 = m1 // m - 1
                pos1 = m1 % m
                fa = assoc_row[ksv[fq]]
                verdict = val1 > fp
                is4 = fa == 4
                # Assoc 4 tolerates one intervening distinct tag: when the
                # window minimum is <= fp the verdict falls to the second
                # minimum — best of the two windows flanking the argmin.
                # Windows whose minimum already exceeds fp are decided.
                need2 = is4 & ~verdict
                if need2.any():
                    big = np.int64(np.iinfo(np.int64).max)
                    val2 = np.full(fq.size, big)
                    lm = need2 & (pos1 - 1 >= fp + 3)
                    rm = need2 & (pos1 + 1 <= fq - 1)
                    nl = int(np.count_nonzero(lm))
                    l2 = np.concatenate([fp[lm] + 3, pos1[rm] + 1])
                    if l2.size:
                        h2 = np.concatenate([pos1[lm] - 1, fq[rm] - 1])
                        v2 = rmq(l2, h2) // m - 1
                        val2[lm] = v2[:nl]
                        val2[rm] = np.minimum(val2[rm], v2[nl:])
                    verdict[need2] = val2[need2] > fp[need2]
                hit_c[fq] = verdict
        if n_syn:
            real_keep = ko >= n_syn
            chits[ko[real_keep] - n_syn] = hit_c[real_keep]
        else:
            chits[ko] = hit_c
        for a, b, out in out_slices:
            hits[out] = chits[a:b]

        # Final state: per set, the last `assoc` distinct tags, MRU first.
        gs = np.nonzero(knew)[0]
        ge = np.append(gs[1:], m)
        for i in range(gs.size):
            a, b = int(gs[i]), int(ge[i])
            row = int(ksv[a])
            assoc = int(assoc_row[row])
            chunk = min(b - a, 4 * assoc)
            while True:
                found: List[int] = []
                seen = set()
                for t in ktag[b - chunk : b].tolist()[::-1]:
                    if t not in seen:
                        seen.add(t)
                        found.append(t)
                        if len(found) == assoc:
                            break
                if len(found) == assoc or chunk == b - a:
                    break
                chunk = min(b - a, chunk * 4)
            W[row_map[row], : len(found)] = found

    def _run_generational(self) -> None:
        """Per-generation state-matrix simulation (any associativity)."""
        max_assoc = max(s["assoc"] for s in self._streams)
        # MRU-first tag matrix, one row per (stream, set); -1 = empty way.
        # Valid tags stay a prefix: insertions happen at column 0 and the
        # -1 tail only ever shifts right into itself.
        W = np.full((self._n_vsets, max_assoc), -1, dtype=np.int64)
        assoc_row = np.empty(self._n_vsets, dtype=np.int64)
        vset_parts = []
        tag_parts = []
        pos = 0
        for s in self._streams:
            rows = slice(s["offset"], s["offset"] + s["n_sets"])
            assoc_row[rows] = s["assoc"]
            if s["seed"] is not None:
                for i, ways in enumerate(s["seed"]):
                    if len(ways) > s["assoc"]:
                        raise ValueError("seed set exceeds associativity")
                    for col, t in enumerate(reversed(ways)):
                        W[s["offset"] + i, col] = t
            lines = s["lines"]
            s["slice"] = slice(pos, pos + lines.size)
            pos += lines.size
            vset_parts.append(s["offset"] + lines % s["n_sets"])
            tag_parts.append(lines // s["n_sets"])
        vset = np.concatenate(vset_parts) if vset_parts else np.zeros(0, np.int64)
        tag = np.concatenate(tag_parts) if tag_parts else np.zeros(0, np.int64)
        n = vset.size
        hits = np.zeros(n, dtype=bool)
        self._hits = hits
        if n == 0:
            return

        # Stable sort by set: per-set temporal order is preserved (streams
        # are concatenated in access order and sets never cross streams).
        order = np.argsort(vset, kind="stable")
        sv = vset[order]
        st = tag[order]
        new_set = np.empty(n, dtype=bool)
        new_set[0] = True
        np.not_equal(sv[1:], sv[:-1], out=new_set[1:])
        # Collapse immediate same-tag repeats: guaranteed hits, no state change.
        dup = np.zeros(n, dtype=bool)
        dup[1:] = ~new_set[1:] & (st[1:] == st[:-1])
        hits[order[dup]] = True
        keep = ~dup
        ko = order[keep]
        ksv = sv[keep]
        m = ko.size

        # Rank of each kept access within its set's sequence; the per-rank
        # "generations" are the vectorized steps.
        idx = np.arange(m, dtype=np.int64)
        knew = np.empty(m, dtype=bool)
        knew[0] = True
        np.not_equal(ksv[1:], ksv[:-1], out=knew[1:])
        group_start = np.maximum.accumulate(np.where(knew, idx, 0))
        rank = (idx - group_start).astype(np.int32)
        counts = np.bincount(rank)
        # counts[r] = number of sets with more than r accesses, so it is
        # non-increasing: late generations touch only a handful of hot sets,
        # where a vectorized step is pure overhead.  Vectorize the fat head
        # of the distribution and finish each hot set's remaining suffix
        # with a scalar loop (CacheSim's own update, on a short list).
        cut = int(np.searchsorted(-counts, -_SCALAR_TAIL_THRESHOLD, side="right"))
        head = rank < cut
        by_rank = np.argsort(rank[head], kind="stable")
        head_idx = np.nonzero(head)[0][by_rank]
        sel = ko[head_idx]
        rows_all = ksv[head_idx]
        tags_all = tag[sel]
        amax_all = assoc_row[rows_all] - 1
        ends = np.cumsum(counts[:cut])
        starts = ends - counts[:cut]
        cols = np.arange(max_assoc, dtype=np.int64)
        for a, b in zip(starts, ends):
            rows = rows_all[a:b]
            tg = tags_all[a:b]
            w = W[rows]
            eq = w == tg[:, None]
            hit = eq.any(axis=1)
            # Hit: rotate ways [0, hitpos] right with the tag re-inserted at
            # the front. Miss: same rotation over the full associativity —
            # insert at front, drop the LRU way (or a -1 filler when the set
            # is not yet full, which is exactly CacheSim's append).
            p = np.where(hit, eq.argmax(axis=1), amax_all[a:b])
            shifted = np.empty_like(w)
            shifted[:, 1:] = w[:, :-1]
            shifted[:, 0] = tg
            W[rows] = np.where(cols[None, :] > p[:, None], w, shifted)
            hits[sel[a:b]] = hit

        if cut < len(counts):
            ktag = st[keep]
            gs = np.nonzero(knew)[0]
            ge = np.append(gs[1:], m)
            hot = np.nonzero((ge - gs) > cut)[0]
            for g in hot:
                a, b = int(gs[g]) + cut, int(ge[g])
                row = int(ksv[gs[g]])
                assoc = int(assoc_row[row])
                # MRU-first row -> MRU-last list, CacheSim's layout.
                ways = [int(t) for t in W[row, :assoc][::-1] if t != -1]
                out = np.empty(b - a, dtype=bool)
                for j, t in enumerate(ktag[a:b].tolist()):
                    try:
                        ways.remove(t)
                        out[j] = True
                    except ValueError:
                        out[j] = False
                        if len(ways) >= assoc:
                            ways.pop(0)
                    ways.append(t)
                hits[ko[a:b]] = out
                W[row, :assoc] = -1
                W[row, : len(ways)] = ways[::-1]
        self._W = W

    def hits_of(self, stream: int) -> np.ndarray:
        """Per-access hit verdicts for one stream (True = hit), in order."""
        if not self._ran:
            raise RuntimeError("run() not called")
        return self._hits[self._streams[stream]["slice"]]

    def final_sets(self, stream: int) -> List[List[int]]:
        """Final cache state for one stream as ``CacheSim._sets`` lists.

        Per-set tag lists, most-recently-used *last* — assignable directly
        onto a reset :class:`CacheSim` to continue a warm simulation.
        """
        if not self._ran:
            raise RuntimeError("run() not called")
        s = self._streams[stream]
        # One bulk tolist over the stream's rows: reversing MRU-first rows
        # gives MRU-last with the -1 fillers at the front, dropped below.
        rows = self._W[s["offset"] : s["offset"] + s["n_sets"], : s["assoc"]]
        return [
            [t for t in row if t != -1] for row in rows[:, ::-1].tolist()
        ]
